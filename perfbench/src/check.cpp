#include "check.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace perfbench {

namespace {

void fail(ScheduleCheck& c, const std::string& msg) {
  ++c.violations;
  if (c.first_errors.size() < 5) c.first_errors.push_back(msg);
}

}  // namespace

ScheduleCheck check_schedule(std::span<const sbs::JobOutcome> outcomes,
                             std::span<const int> owner,
                             std::span<const int> capacity,
                             std::span<const std::uint32_t> starts_seen) {
  ScheduleCheck c;
  // (time, +nodes at start / -nodes at end, member); ends sort before
  // starts at the same instant, since a job ending at t frees its nodes
  // for one starting at t.
  std::vector<std::tuple<sbs::Time, int, int>> edges;
  edges.reserve(outcomes.size() * 2);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const sbs::JobOutcome& o = outcomes[i];
    if (o.job.in_window) {
      ++c.in_window;
      if (!o.completed) ++c.not_completed;
    }
    std::ostringstream who;
    who << "job " << o.job.id << ": ";
    if (o.job.id != static_cast<int>(i)) fail(c, who.str() + "out of order");
    if (!o.completed) {
      fail(c, who.str() + "never completed");
      continue;
    }
    if (o.requeue_count != 0) fail(c, who.str() + "restarted");
    if (!starts_seen.empty() && starts_seen[i] != 1) {
      std::ostringstream m;
      m << who.str() << "started by " << starts_seen[i]
        << " scheduler decisions";
      fail(c, m.str());
    }
    if (o.start < o.job.submit) fail(c, who.str() + "started before submit");
    if (o.end - o.start != o.job.runtime)
      fail(c, who.str() + "ran other than its actual runtime");
    const int m = owner.empty() ? 0 : owner[i];
    if (m < 0 || static_cast<std::size_t>(m) >= capacity.size()) {
      fail(c, who.str() + "ran on an unknown member");
      continue;
    }
    edges.emplace_back(o.start, o.job.nodes, m);
    edges.emplace_back(o.end, -o.job.nodes, m);
  }
  std::sort(edges.begin(), edges.end());
  std::vector<int> used(capacity.size(), 0);
  for (const auto& [t, delta, m] : edges) {
    used[static_cast<std::size_t>(m)] += delta;
    if (delta > 0 && used[static_cast<std::size_t>(m)] >
                         capacity[static_cast<std::size_t>(m)]) {
      std::ostringstream msg;
      msg << "member " << m << " oversubscribed at t=" << t << ": "
          << used[static_cast<std::size_t>(m)] << " of "
          << capacity[static_cast<std::size_t>(m)] << " nodes";
      fail(c, msg.str());
    }
  }
  return c;
}

}  // namespace perfbench
