#include "probes.hpp"

#include <algorithm>

#include "core/search_scheduler.hpp"

namespace perfbench {

DecisionState::DecisionState(const sbs::SchedulerState& state,
                             std::int64_t decision, std::vector<int> result)
    : id(decision),
      now(state.now),
      capacity(state.capacity),
      free_nodes(state.free_nodes),
      chosen(std::move(result)) {
  jobs.reserve(state.waiting.size() + state.running.size());
  for (const sbs::WaitingJob& w : state.waiting) jobs.push_back(*w.job);
  for (const sbs::RunningJob& r : state.running) jobs.push_back(*r.job);
  const sbs::Job* next = jobs.data();
  for (const sbs::WaitingJob& w : state.waiting)
    waiting.push_back(sbs::WaitingJob{next++, w.estimate});
  for (const sbs::RunningJob& r : state.running)
    running.push_back(sbs::RunningJob{next++, r.start, r.est_end});
  std::sort(chosen.begin(), chosen.end());
}

sbs::SchedulerState DecisionState::view() const {
  sbs::SchedulerState s;
  s.now = now;
  s.capacity = capacity;
  s.free_nodes = free_nodes;
  s.waiting = waiting;
  s.running = running;
  return s;
}

void Probe::begin_run(std::size_t jobs, std::size_t members) {
  starts.assign(jobs, 0);
  if (member_select_ns.size() < members) member_select_ns.resize(members, 0);
}

TimedScheduler::TimedScheduler(std::unique_ptr<sbs::Scheduler> inner,
                               Probe& probe, std::size_t member)
    : inner_(std::move(inner)),
      probe_(probe),
      member_(member),
      search_(dynamic_cast<const sbs::SearchScheduler*>(inner_.get()) !=
              nullptr) {}

std::vector<int> TimedScheduler::select_jobs(
    const sbs::SchedulerState& state) {
  const auto id = static_cast<std::int64_t>(probe_.decisions++);
  ScopedSpan span(probe_.spans, search_ ? kSearchSelectSpan : kOtherSelectSpan,
                  id);
  // A search call (hundreds of microseconds and up) is also timed on the
  // process CPU clock, which host contention does not stretch; a backfill
  // call takes about as long as one CPU-clock reading, so it keeps the
  // wall clock.
  const std::int64_t c0 = search_ ? cpu_ns() : 0;
  const std::int64_t t0 = now_ns();
  std::vector<int> chosen = inner_->select_jobs(state);
  const std::int64_t t1 = now_ns();
  const std::int64_t took = search_ ? cpu_ns() - c0 : t1 - t0;

  probe_.member_select_ns[member_] += t1 - t0;
  probe_.queue_sum += static_cast<double>(state.waiting.size());
  for (const int job : chosen) ++probe_.starts[static_cast<std::size_t>(job)];

  // A call can start a job only if a queued job fits the free nodes (the
  // search policy's own fast-path test). The other calls return nothing
  // in microseconds; on the federation they are a third to a half of all
  // calls, which would put the median on the edge between two modes a
  // hundredfold apart. They count toward every time but the percentiles.
  const bool can_start =
      std::any_of(state.waiting.begin(), state.waiting.end(),
                  [&](const sbs::WaitingJob& w) {
                    return w.job->nodes <= state.free_nodes;
                  });
  if (!can_start) {
    ++probe_.idle_decisions;
    return chosen;
  }
  probe_.decide_us.push_back(static_cast<double>(took) / 1e3);
  // The replay covers exactly the calls that reach the search.
  if (probe_.record_states && search_)
    probe_.states.emplace_back(state, id, chosen);
  return chosen;
}

int TimedMeta::route(const sbs::Job& job, sbs::Time estimate,
                     std::span<const sbs::fed::ClusterProbe> probes) {
  ScopedSpan span(probe_.spans, "route", job.id);
  return inner_.route(job, estimate, probes);
}

void TimedSink::write(std::string_view json_line) {
  // Telemetry records follow the decision they describe, so a write
  // carries the id of the latest select_jobs call (-1 before the first).
  ScopedSpan span(probe_.spans, "sink.write",
                  static_cast<std::int64_t>(probe_.decisions) - 1);
  inner_->write(json_line);
  probe_.bytes += json_line.size();
}

void TimedSink::flush() {
  ScopedSpan span(probe_.spans, "sink.flush");
  inner_->flush();
}

}  // namespace perfbench
