#include "replay.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace perfbench {

ReplayTotals replay_decisions(std::span<const DecisionState> states,
                              const sbs::SearchSchedulerConfig& config,
                              SpanRecorder* spans) {
  SBS_CHECK_MSG(!config.warm_start && !config.fairshare && !config.refine,
                "replay needs a policy without cross-decision state");
  ReplayTotals t;
  ScopedSpan replay_span(spans, "replay");
  for (const DecisionState& d : states) {
    const sbs::SchedulerState state = d.view();
    sbs::SearchProblem problem;
    {
      ScopedSpan span(spans, "from_state", d.id);
      problem = sbs::SearchProblem::from_state(state, config.bound);
    }
    std::vector<int> chosen;
    if (problem.size() > 0) {
      ++t.searched;
      sbs::SearchResult r;
      {
        ScopedSpan span(spans, "run_search", d.id);
        r = sbs::run_search(problem, config.search);
      }
      t.nodes += r.nodes_visited;
      t.paths += r.paths_completed;
      t.exhausted += r.exhausted ? 1 : 0;
      t.cache_hits += r.cache_hits;
      t.cache_misses += r.cache_misses;
      t.pruned_twins += r.pruned_twins;
      t.pruned_bound += r.pruned_bound;
      for (std::size_t i = 0; i < problem.size(); ++i)
        if (r.starts[i] == state.now) chosen.push_back(problem.jobs[i].job->id);
      std::sort(chosen.begin(), chosen.end());
    }
    if (chosen != d.chosen) {
      ++t.mismatches;
      if (t.first_mismatches.size() < 5)
        t.first_mismatches.push_back(
            "decision " + std::to_string(d.id) + " at t=" +
            std::to_string(d.now) + ": replay started " +
            std::to_string(chosen.size()) + " jobs, live started " +
            std::to_string(d.chosen.size()));
    }
  }
  return t;
}

}  // namespace perfbench
