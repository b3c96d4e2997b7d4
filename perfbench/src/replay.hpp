#pragma once

// The traced run's replay of recorded search decisions: each decision's
// state goes back through SearchProblem::from_state and run_search, each
// under a span of its own, and must start the same jobs the live
// select_jobs call did.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/search_scheduler.hpp"
#include "probes.hpp"
#include "spans.hpp"

namespace perfbench {

struct ReplayTotals {
  std::uint64_t searched = 0;  ///< decisions whose problem was non-empty
  std::uint64_t nodes = 0;
  std::uint64_t paths = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t pruned_twins = 0;
  std::uint64_t pruned_bound = 0;
  std::uint64_t mismatches = 0;  ///< replays that started other jobs
  std::vector<std::string> first_mismatches;  ///< up to five, for the log
};

/// Replays every recorded decision with the live policy's configuration.
/// The policy must be stateless across decisions (no warm start, no fair
/// share), as DDS/lxf/dynB is, so each replay sees exactly the live input.
ReplayTotals replay_decisions(std::span<const DecisionState> states,
                              const sbs::SearchSchedulerConfig& config,
                              SpanRecorder* spans);

}  // namespace perfbench
