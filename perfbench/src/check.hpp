#pragma once

// Schedule checker run over every simulated outcome set, independent of
// the program's own invariant checks.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/outcome.hpp"

namespace perfbench {

struct ScheduleCheck {
  std::size_t in_window = 0;      ///< in-window jobs in the outcome set
  std::size_t not_completed = 0;  ///< in-window jobs that did not complete
  std::size_t violations = 0;     ///< failed checks, all kinds
  std::vector<std::string> first_errors;  ///< up to five, for the log

  bool ok() const { return violations == 0; }
  /// The run's failed jobs: every in-window job when any check failed,
  /// otherwise the in-window jobs that did not complete.
  std::size_t failed_jobs() const { return ok() ? not_completed : in_window; }
};

/// Checks a schedule. Every job, in the window or not, must
///   - have completed exactly once: completed, never requeued, and (when
///     `starts_seen` is given) returned by exactly one select_jobs call;
///   - start no earlier than its submit time;
///   - run exactly its actual runtime (end - start == runtime);
/// and at no instant may the nodes in use on a member exceed its capacity.
/// `owner[id]` is the member a job ran on (empty = a single machine,
/// member 0); `capacity[m]` is member m's node count.
ScheduleCheck check_schedule(std::span<const sbs::JobOutcome> outcomes,
                             std::span<const int> owner,
                             std::span<const int> capacity,
                             std::span<const std::uint32_t> starts_seen);

}  // namespace perfbench
