#pragma once

// Forwarding wrappers that measure each layer from outside, through its
// public virtual interface: a Scheduler around select_jobs, a
// MetaScheduler around route, and a TraceSink around write/flush. They
// change no decision: every call goes to the wrapped object unchanged.

#include <cstdint>
#include <memory>
#include <vector>

#include "fed/meta_scheduler.hpp"
#include "obs/trace_sink.hpp"
#include "sim/scheduler.hpp"
#include "spans.hpp"

namespace perfbench {

/// A select_jobs call's input and output, copied for the traced run's
/// replay through SearchProblem::from_state and run_search. The state owns
/// copies of its jobs (a federation's member traces die with the
/// federation), so it is move-only: moving keeps the vectors' buffers, and
/// with them the pointers `waiting` and `running` hold into `jobs`.
struct DecisionState {
  DecisionState(const sbs::SchedulerState& state, std::int64_t id,
                std::vector<int> chosen);
  DecisionState(DecisionState&&) = default;
  DecisionState& operator=(DecisionState&&) = default;
  DecisionState(const DecisionState&) = delete;
  DecisionState& operator=(const DecisionState&) = delete;

  std::int64_t id = 0;  ///< decision number (matches the select_jobs span)
  sbs::Time now = 0;
  int capacity = 0;
  int free_nodes = 0;
  std::vector<sbs::Job> jobs;  ///< waiting jobs, then running jobs
  std::vector<sbs::WaitingJob> waiting;
  std::vector<sbs::RunningJob> running;
  std::vector<int> chosen;  ///< live result, sorted

  sbs::SchedulerState view() const;
};

/// Counters and samples of one workload run, shared by every wrapper. In
/// the traced run the layer times come from the spans; these keep only
/// what spans cannot give: per-call latency samples of the untraced run,
/// per-member select time, queue lengths and telemetry bytes.
struct Probe {
  SpanRecorder* spans = nullptr;  ///< null outside the traced run
  bool record_states = false;     ///< keep search decisions for replay

  // select_jobs, over every wrapped scheduler.
  std::uint64_t decisions = 0;
  std::uint64_t idle_decisions = 0;      ///< calls where no queued job fit
  double queue_sum = 0.0;                ///< waiting jobs summed over calls
  std::vector<double> decide_us;         ///< one per call that could start
  std::vector<std::int64_t> member_select_ns;
  std::vector<DecisionState> states;

  // write, over every wrapped sink.
  std::uint64_t bytes = 0;

  // Per simulation: how often select_jobs returned each job.
  std::vector<std::uint32_t> starts;

  /// Call right before each simulate()/Federation::run(): resets the
  /// per-job start counts and sizes the per-member select times.
  void begin_run(std::size_t jobs, std::size_t members);
};

/// Span names of select_jobs calls: search policies and the others
/// (backfill) are kept apart, as core.select_s and policies.select_s.
inline constexpr const char* kSearchSelectSpan = "select_jobs.search";
inline constexpr const char* kOtherSelectSpan = "select_jobs";

class TimedScheduler final : public sbs::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sbs::Scheduler> inner, Probe& probe,
                 std::size_t member);

  std::vector<int> select_jobs(const sbs::SchedulerState& state) override;
  std::string name() const override { return inner_->name(); }
  sbs::SchedulerStats stats() const override { return inner_->stats(); }
  void set_collect_decision_detail(bool on) override {
    inner_->set_collect_decision_detail(on);
  }
  const sbs::DecisionDetail* last_decision() const override {
    return inner_->last_decision();
  }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(std::string_view s) override { inner_->restore_state(s); }

 private:
  std::unique_ptr<sbs::Scheduler> inner_;
  Probe& probe_;
  std::size_t member_;
  bool search_;
};

class TimedMeta final : public sbs::fed::MetaScheduler {
 public:
  TimedMeta(sbs::fed::MetaScheduler& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  int route(const sbs::Job& job, sbs::Time estimate,
            std::span<const sbs::fed::ClusterProbe> probes) override;
  std::string name() const override { return inner_.name(); }
  bool wants_probe() const override { return inner_.wants_probe(); }
  std::string save_state() const override { return inner_.save_state(); }
  void restore_state(std::string_view s) override { inner_.restore_state(s); }

 private:
  sbs::fed::MetaScheduler& inner_;
  Probe& probe_;
};

class TimedSink final : public sbs::obs::TraceSink {
 public:
  TimedSink(std::unique_ptr<sbs::obs::TraceSink> inner, Probe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  void write(std::string_view json_line) override;
  void flush() override;

 private:
  std::unique_ptr<sbs::obs::TraceSink> inner_;
  Probe& probe_;
};

}  // namespace perfbench
