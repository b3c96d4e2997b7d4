#include "workloads.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <optional>
#include <thread>

#include "check.hpp"
#include "core/search_scheduler.hpp"
#include "exp/policy_factory.hpp"
#include "exp/runner.hpp"
#include "fed/federation.hpp"
#include "metrics/summary.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

constexpr const char* kSearchPolicy = "DDS/lxf/dynB";

/// Largest forward shift of a submit time, in seconds.
constexpr sbs::Time kJitterS = 120;

/// The workload seed's input: the generator's calibrated month (generator
/// seed 2005) with every submit time moved forward by a seeded 0..kJitterS
/// seconds, never past the next job's submit time, so job order, ids,
/// bursts and offered load stay as generated while every decision point
/// and search differs. A fresh generator seed per run would instead change
/// the month's backlog structure, and with it the run's work, by a fifth
/// from seed to seed.
void jitter(sbs::Trace& trace, sbs::Rng& rng) {
  std::vector<sbs::Job>& jobs = trace.jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sbs::Time room =
        i + 1 < jobs.size()
            ? std::min(kJitterS, jobs[i + 1].submit - jobs[i].submit)
            : kJitterS;
    jobs[i].submit += rng.uniform_int(0, room);
  }
}

/// The month `name` jittered by stream `stream` of the workload seed.
sbs::Trace month(std::string_view name, std::uint64_t seed,
                 std::uint64_t stream = 0) {
  sbs::Trace t = sbs::generate_month(name);
  sbs::Rng rng = sbs::Rng(seed).fork(stream);
  jitter(t, rng);
  return t;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Schedule quality in the paper's measures, averaged over `runs`
/// outcome sets (max_wait_h is the largest of them).
struct Quality {
  double wait_sum = 0.0, max_wait = 0.0, bsld_sum = 0.0, excess_sum = 0.0;
  int runs = 0;

  void add(std::span<const sbs::JobOutcome> outcomes,
           sbs::Time fcfs_max_wait) {
    const sbs::Summary s = sbs::summarize(outcomes);
    wait_sum += s.avg_wait_h;
    max_wait = std::max(max_wait, s.max_wait_h);
    bsld_sum += s.avg_bounded_slowdown;
    excess_sum += sbs::excessive_stats(outcomes, fcfs_max_wait).total_h;
    ++runs;
  }

  /// Stores the quality as the pass's metrics.* values and logs it.
  void record(Pass& pass, const std::string& workload) const {
    const double n = runs;
    pass.layer["metrics.avg_wait_h"] = wait_sum / n;
    pass.layer["metrics.max_wait_h"] = max_wait;
    pass.layer["metrics.avg_bsld"] = bsld_sum / n;
    pass.layer["metrics.excess_wait_h"] = excess_sum / n;
    pass.notes.push_back(
        "quality " + workload + " over " + std::to_string(runs) +
        " run(s): avg_wait_h=" + fmt(wait_sum / n) +
        " max_wait_h=" + fmt(max_wait) + " avg_bsld=" + fmt(bsld_sum / n) +
        " excess_wait_h=" + fmt(excess_sum / n));
  }
};

/// Runs the schedule checker over one simulated outcome set and folds it
/// into the pass: attempted/failed job counts, error notes, digest.
void account(Pass& pass, const std::string& label,
             std::span<const sbs::JobOutcome> outcomes,
             std::span<const int> owner, std::span<const int> capacity,
             Digest& digest) {
  const ScheduleCheck c =
      check_schedule(outcomes, owner, capacity, pass.probe.starts);
  pass.attempted += c.in_window;
  pass.failed += c.failed_jobs();
  if (!c.ok()) {
    pass.correct = false;
    pass.notes.push_back("check FAILED " + label + ": " +
                         std::to_string(c.violations) + " violations");
    for (const std::string& e : c.first_errors)
      pass.notes.push_back("  " + e);
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    digest.add(outcomes[i].job.id);
    digest.add(owner.empty() ? 0 : owner[i]);
    digest.add(outcomes[i].start);
    digest.add(outcomes[i].end);
  }
}

/// A run phase's schedule digest must repeat on every run phase of the
/// pass: the inputs are the same and the program is deterministic.
void record_digest(Pass& pass, const std::string& workload,
                   const Digest& digest) {
  if (pass.digest.empty()) {
    pass.digest = digest.hex();
    pass.notes.push_back("digest " + workload + " " + pass.digest);
  } else if (digest.hex() != pass.digest) {
    pass.correct = false;
    pass.notes.push_back("check FAILED " + workload + ": digest " +
                         digest.hex() + " differs from the first run " +
                         pass.digest);
  }
}

/// Wraps a freshly made policy and remembers the search config it runs.
std::unique_ptr<sbs::Scheduler> timed_policy(
    const std::string& spec, std::size_t node_limit, Probe& probe,
    std::size_t member,
    std::optional<sbs::SearchSchedulerConfig>* search_cfg = nullptr) {
  std::unique_ptr<sbs::Scheduler> p = sbs::make_policy(spec, node_limit);
  if (search_cfg != nullptr) {
    const auto* s = dynamic_cast<const sbs::SearchScheduler*>(p.get());
    SBS_CHECK_MSG(s != nullptr, spec << " is not a search policy");
    *search_cfg = s->config();
  }
  return std::make_unique<TimedScheduler>(std::move(p), probe, member);
}

// ---------------------------------------------------------------------------
// month-hiload-L8k: one month at high load under the search policy.

/// Jittered copies of 1/04 per run phase. The jitter moves one copy's
/// search work by a quarter from seed to seed (11.6-12.1 s against
/// 14.4-16.9 s for two seeds, each run twice, on one host), and its
/// decide_p99_us more: with two copies pooled, decide_p99_us still spread
/// by 0.16 between the quartiles of five seeds (a jitter of 5 s instead of
/// 120 s spread it as much), so a run pools four. The traced run, which
/// runs the workload twice and replays it once, takes the first copy only,
/// to end well within its time limit.
constexpr std::size_t kMonthInputs = 4;

class MonthHiload final : public Workload {
 public:
  explicit MonthHiload(const Options& o)
      : opt_(o), inputs_(o.trace ? 1 : kMonthInputs) {}

  void setup(Pass& pass) override {
    ScopedSpan span(pass.probe.spans, "setup");
    {
      ScopedSpan step(pass.probe.spans, "generate");
      for (std::size_t k = 0; k < inputs_.size(); ++k)
        inputs_[k].trace =
            sbs::rescale_to_load(month("1/04", opt_.seed, k), 0.95);
    }
    {
      ScopedSpan step(pass.probe.spans, "thresholds");
      for (Input& in : inputs_)
        in.thresholds = sbs::fcfs_thresholds(in.trace);
    }
    ScopedSpan construct(pass.probe.spans, "construct");
    for (Input& in : inputs_)
      in.next = timed_policy(kSearchPolicy, 8000, pass.probe, 0, &search_cfg_);
  }

  void run(Pass& pass) override {
    Digest d;
    Quality q;
    std::int64_t wall = 0;
    for (Input& in : inputs_) {
      std::unique_ptr<sbs::Scheduler> sched =
          in.next ? std::move(in.next)
                  : timed_policy(kSearchPolicy, 8000, pass.probe, 0);
      pass.probe.begin_run(in.trace.jobs.size(), 1);
      const std::int64_t t0 = now_ns();
      sbs::SimResult r;
      {
        ScopedSpan span(pass.probe.spans, "simulate");
        r = sbs::simulate(in.trace, *sched);
      }
      wall += now_ns() - t0;
      const int cap = in.trace.capacity;
      account(pass, "month-hiload-L8k", r.outcomes, {}, {&cap, 1}, d);
      q.add(r.outcomes, in.thresholds.max_wait);
    }
    pass.wall_s.push_back(static_cast<double>(wall) / 1e9);
    if (pass.digest.empty()) q.record(pass, "month-hiload-L8k");
    record_digest(pass, "month-hiload-L8k", d);
  }

  const sbs::SearchSchedulerConfig* search_config() const override {
    return search_cfg_ ? &*search_cfg_ : nullptr;
  }

 private:
  struct Input {
    sbs::Trace trace;
    sbs::Thresholds thresholds;
    std::unique_ptr<sbs::Scheduler> next;  ///< built by setup
  };

  Options opt_;
  std::vector<Input> inputs_;
  std::optional<sbs::SearchSchedulerConfig> search_cfg_;
};

// ---------------------------------------------------------------------------
// baseline-sweep-telemetry: ten months x {original, 0.95} x {FCFS-BF,
// LXF-BF}, every run streaming JSONL telemetry to a temporary file.

class BaselineSweep final : public Workload {
 public:
  explicit BaselineSweep(const Options& o)
      : opt_(o), dir_(std::filesystem::path(o.out_dir) / "sweep-telemetry") {}

  void setup(Pass& pass) override {
    ScopedSpan span(pass.probe.spans, "setup");
    {
      ScopedSpan step(pass.probe.spans, "generate");
      traces_.clear();
      sbs::Rng rng(opt_.seed);
      for (sbs::Trace& m : sbs::generate_all_months()) {
        jitter(m, rng);
        traces_.push_back(m);
        traces_.push_back(sbs::rescale_to_load(m, 0.95));
      }
    }
    {
      ScopedSpan step(pass.probe.spans, "thresholds");
      thresholds_.clear();
      for (const sbs::Trace& t : traces_)
        thresholds_.push_back(sbs::fcfs_thresholds(t));
    }
    std::filesystem::create_directories(dir_);
  }

  void run(Pass& pass) override {
    Digest d;
    std::int64_t wall = 0;
    Quality q;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      const sbs::Trace& trace = traces_[i];
      for (const char* spec : {"FCFS-BF", "LXF-BF"}) {
        const std::string path =
            (dir_ / ("run-" + std::to_string(i) + "-" + spec + ".jsonl"))
                .string();
        sbs::SimResult r;
        {
          sbs::obs::Telemetry tel(std::make_unique<TimedSink>(
              std::make_unique<sbs::obs::JsonlSink>(path), pass.probe));
          sbs::SimConfig sc;
          sc.telemetry = &tel;
          std::unique_ptr<sbs::Scheduler> sched =
              timed_policy(spec, 1000, pass.probe, 0);
          pass.probe.begin_run(trace.jobs.size(), 1);
          const std::int64_t t0 = now_ns();
          {
            ScopedSpan span(pass.probe.spans, "simulate");
            r = sbs::simulate(trace, *sched, sc);
            tel.flush();
          }
          wall += now_ns() - t0;
        }
        std::filesystem::remove(path);
        const int cap = trace.capacity;
        account(pass, std::string("baseline-sweep-telemetry ") + trace.name +
                          " " + spec,
                r.outcomes, {}, {&cap, 1}, d);
        q.add(r.outcomes, thresholds_[i].max_wait);
      }
    }
    pass.wall_s.push_back(static_cast<double>(wall) / 1e9);
    if (pass.digest.empty()) q.record(pass, "baseline-sweep-telemetry");
    record_digest(pass, "baseline-sweep-telemetry", d);
  }

 private:
  Options opt_;
  std::filesystem::path dir_;
  std::vector<sbs::Trace> traces_;
  std::vector<sbs::Thresholds> thresholds_;
};

// ---------------------------------------------------------------------------
// federation-3m-L4k: 2/04 at 1.8x the 128-node load, federated over three
// members with least-loaded routing and migration.

/// Jittered copies of 2/04 per run phase. Routing and migration amplify
/// the jitter: one copy's decide_p99_us ranged 1.7-3.3 ms over ten seeds,
/// with three copies wall_s still spread by 0.27 over ten, and with four
/// decide_p99_us spread by 0.16 over five (0.085 with six), so a run pools
/// five. As on month-hiload-L8k, the traced run takes the first copy only.
constexpr std::size_t kFederationInputs = 5;

class FederationMonth final : public Workload {
 public:
  explicit FederationMonth(const Options& o)
      : opt_(o), inputs_(o.trace ? 1 : kFederationInputs) {
    config_.members = sbs::fed::parse_cluster_spec("wide:128,h1:64,h2:64");
    for (const sbs::fed::MemberSpec& m : config_.members)
      capacity_.push_back(m.nodes);
    factory_ = [this](std::size_t member) {
      return timed_policy(kSearchPolicy, 4000, *probe_, member, &search_cfg_);
    };
  }

  void setup(Pass& pass) override {
    ScopedSpan span(pass.probe.spans, "setup");
    {
      ScopedSpan step(pass.probe.spans, "generate");
      for (std::size_t k = 0; k < inputs_.size(); ++k)
        inputs_[k].trace =
            sbs::rescale_to_load(month("2/04", opt_.seed, k), 1.8);
    }
    // The federation has 256 nodes, so its FCFS-BF reference is the same
    // jobs on one 256-node machine (load 0.9), not the 128-node trace the
    // load was scaled against.
    {
      ScopedSpan step(pass.probe.spans, "thresholds");
      for (Input& in : inputs_) {
        sbs::Trace mono = in.trace;
        mono.capacity = 0;
        for (const int c : capacity_) mono.capacity += c;
        in.thresholds = sbs::fcfs_thresholds(mono);
      }
    }
    ScopedSpan construct(pass.probe.spans, "construct");
    for (Input& in : inputs_) construct_run(pass, in);
  }

  void run(Pass& pass) override {
    Digest d;
    Quality q;
    std::int64_t wall = 0;
    std::uint64_t migrations = 0;
    for (Input& in : inputs_) {
      if (!in.federation) construct_run(pass, in);
      pass.probe.begin_run(in.trace.jobs.size(), capacity_.size());
      const std::int64_t t0 = now_ns();
      sbs::fed::FederationResult fr;
      {
        ScopedSpan span(pass.probe.spans, "federation.run");
        fr = in.federation->run();
      }
      wall += now_ns() - t0;
      in.federation.reset();
      account(pass, "federation-3m-L4k", fr.outcomes, fr.owner, capacity_, d);
      q.add(fr.outcomes, in.thresholds.max_wait);
      migrations += fr.migrations;
    }
    pass.wall_s.push_back(static_cast<double>(wall) / 1e9);
    if (pass.digest.empty()) {
      q.record(pass, "federation-3m-L4k");
      pass.layer["fed.migrations"] = static_cast<double>(migrations);
      pass.notes.push_back("migrations " + std::to_string(migrations));
    }
    record_digest(pass, "federation-3m-L4k", d);
  }

  const sbs::SearchSchedulerConfig* search_config() const override {
    return search_cfg_ ? &*search_cfg_ : nullptr;
  }

 private:
  /// One input and the federation that runs it. The federation holds
  /// references to the trace and the meta-scheduler, so inputs never move:
  /// inputs_ is sized once, at construction.
  struct Input {
    sbs::Trace trace;
    sbs::Thresholds thresholds;
    std::unique_ptr<sbs::fed::MetaScheduler> meta;
    std::unique_ptr<TimedMeta> timed_meta;
    std::unique_ptr<sbs::fed::Federation> federation;
  };

  void construct_run(Pass& pass, Input& in) {
    probe_ = &pass.probe;
    in.federation.reset();
    in.meta = sbs::fed::make_meta("least-loaded");
    in.timed_meta = std::make_unique<TimedMeta>(*in.meta, pass.probe);
    in.federation = std::make_unique<sbs::fed::Federation>(
        in.trace, factory_, *in.timed_meta, config_);
  }

  Options opt_;
  sbs::fed::FederationConfig config_;
  std::vector<int> capacity_;
  sbs::fed::SchedulerFactory factory_;
  Probe* probe_ = nullptr;
  std::vector<Input> inputs_;
  std::optional<sbs::SearchSchedulerConfig> search_cfg_;
};

// ---------------------------------------------------------------------------
// serve-replay and serve-backlog: an in-process scheduler service on one
// thread, with this thread as its one client over the service's Unix
// socket. serve-replay is open loop: it replays a month's submissions on
// the wall schedule submit / time_scale. serve-backlog submits a burst of a
// month's jobs before the service starts and times the service through the
// whole backlog.

/// Virtual seconds per wall second for serve-replay: ~130 submissions/s of
/// 3/04. Traced runs at this rate kept a mean queue of 11-25 jobs and shed
/// nothing.
constexpr std::int64_t kServeTimeScale = 100000;

/// serve-backlog's burst: the first jobs of 3/04, no more than the default
/// admission queue limit, so that every submission is admitted.
constexpr std::size_t kBacklogJobs = 1000;

/// serve-backlog's batching window, wider than any run: the service makes
/// its first decision on the whole burst and the rest in its drain, so
/// that no decision races the client.
constexpr int kBacklogBatchMs = 3'600'000;

/// Keeps every telemetry line the service writes: serve-backlog rebuilds
/// the schedule and the decision times from them.
class CaptureSink final : public sbs::obs::TraceSink {
 public:
  explicit CaptureSink(std::vector<std::string>& lines) : lines_(lines) {}
  void write(std::string_view json_line) override {
    lines_.emplace_back(json_line);
  }

 private:
  std::vector<std::string>& lines_;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const Options& o, bool backlog)
      : opt_(o),
        backlog_(backlog),
        socket_path_((std::filesystem::path(o.out_dir) /
                      ("serve-" + std::to_string(::getpid()) + ".sock"))
                         .string()) {}

  ~ServeWorkload() override { disconnect(); }

  void setup(Pass& pass) override {
    ScopedSpan span(pass.probe.spans, "setup");
    {
      ScopedSpan step(pass.probe.spans, "generate");
      trace_ = month("3/04", opt_.seed);
      if (backlog_)
        plan_backlog();
      else
        plan_replay();
    }
    // Warm-up and cool-down tenths are excluded from the percentiles, and
    // the measured middle must leave ten samples beyond its p99.
    SBS_CHECK_MSG(backlog_ ||
                      measured_range().second - measured_range().first >= 1000,
                  "serve-replay: only " << due_ns_.size() << " submissions "
                  "are due in " << opt_.seconds << " s at time scale "
                  << kServeTimeScale << "; the p99 needs 1000 in the "
                  "measured window");
    ScopedSpan construct(pass.probe.spans, "construct");
    construct_run();
  }

  void run(Pass& pass) override {
    if (!service_) construct_run();
    order_submissions(pass.wall_s.size());
    const std::int64_t t0 = now_ns();
    Replay rep = start_replay(t0);
    // What is due at the start goes out before the service runs: for
    // serve-backlog the whole burst, which the service then admits in one
    // read, before its first decision.
    send_due(rep);
    SBS_CHECK_MSG(!backlog_ || rep.out.empty(),
                  "serve-backlog: the burst did not fit the socket buffer");
    std::exception_ptr server_error;
    sbs::service::ServiceStats served;
    std::thread server([&] {
      try {
        served = service_->run();
      } catch (...) {
        server_error = std::current_exception();
      }
    });
    std::int64_t end = 0;
    {
      ScopedSpan span(pass.probe.spans,
                      backlog_ ? "serve.backlog" : "serve.replay");
      try {
        replay(pass, rep);
        if (pass.probe.spans != nullptr) add_submit_spans(pass, rep);
      } catch (...) {
        stop_ = true;  // the service drains and returns
        server.join();
        throw;
      }
      server.join();
      // serve-replay's run phase ends with the final stats reply; the
      // drain that follows (the service fast-forwards its queue) is not
      // measured. serve-backlog's run phase is mostly that drain.
      end = backlog_ ? now_ns() : rep.end;
    }
    disconnect();
    service_.reset();
    if (server_error) std::rethrow_exception(server_error);
    pass.wall_s.push_back(static_cast<double>(end - t0) / 1e9);
    summarize_replay(pass, rep, served);
    if (backlog_) check_backlog(pass);
  }

  TimingSummary decide_timing(const Pass& pass) const override {
    return backlog_ ? Workload::decide_timing(pass) : think_;
  }

 private:
  struct Replay {
    std::vector<std::int64_t> sent, replied;  ///< absolute ns, 0 = never
    std::vector<char> accepted;
    std::vector<double> queue_depth;          ///< traced-run stats samples
    sbs::obs::JsonValue final_stats;
    std::string out;        ///< bytes not yet taken by the socket
    std::size_t next = 0;   ///< next submission to send
    std::int64_t start = 0;
    std::int64_t end = 0;  ///< when the final stats reply arrived
  };

  /// serve-replay: the month's submissions due within --seconds.
  void plan_replay() {
    due_ns_.clear();
    const sbs::Time first = trace_.jobs.front().submit;
    const double horizon_ns = opt_.seconds * 1e9;
    for (const sbs::Job& j : trace_.jobs) {
      const double due = static_cast<double>(j.submit - first) * 1e9 /
                         static_cast<double>(kServeTimeScale);
      if (due >= horizon_ns) break;
      due_ns_.push_back(static_cast<std::int64_t>(due));
    }
  }

  /// serve-backlog: the month's first kBacklogJobs jobs, all due at once.
  void plan_backlog() {
    trace_.jobs.resize(std::min(trace_.jobs.size(), kBacklogJobs));
    due_ns_.assign(trace_.jobs.size(), 0);
  }

  /// The order of run phase `phase`'s submissions. serve-backlog shuffles
  /// its burst with stream `phase` of the seed: the order sets the
  /// service's job ids, and with them the order of the equal-submit jobs
  /// in its queue, which moves the drain's work by a fifth from order to
  /// order; wall_s is a median over orders.
  void order_submissions(std::size_t phase) {
    order_ = trace_.jobs;
    if (!backlog_) return;
    sbs::Rng rng = sbs::Rng(opt_.seed).fork(1 + phase);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1],
                order_[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
  }

  std::pair<std::size_t, std::size_t> measured_range() const {
    const std::size_t n = due_ns_.size();
    return {n / 10, n - n / 10};
  }

  void construct_run() {
    disconnect();
    service_.reset();
    stop_ = false;
    std::filesystem::create_directories(opt_.out_dir);
    sbs::service::ServiceConfig cfg;
    cfg.socket_path = socket_path_;
    cfg.capacity = trace_.capacity;
    cfg.policy = kSearchPolicy;
    cfg.node_limit = 1000;
    cfg.time_scale = kServeTimeScale;
    cfg.interrupt = &stop_;
    if (backlog_) {
      // One virtual second per wall second: the drain fast-forwards the
      // clock itself, and the wall clock moves it as little as it can.
      cfg.time_scale = 1;
      cfg.batch_ms = kBacklogBatchMs;
      telemetry_lines_.clear();
      telemetry_ = std::make_unique<sbs::obs::Telemetry>(
          std::make_unique<CaptureSink>(telemetry_lines_));
      cfg.telemetry = telemetry_.get();
    }
    service_ = std::make_unique<sbs::service::SchedulerService>(cfg);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    SBS_CHECK_MSG(fd_ >= 0, "socket(): " << std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    SBS_CHECK_MSG(socket_path_.size() < sizeof(addr.sun_path),
                  "socket path too long: " << socket_path_);
    std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
    // The service listens from construction on; the connection waits in
    // its backlog until the service loop accepts it.
    SBS_CHECK_MSG(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) == 0,
                  "connect(" << socket_path_ << "): " << std::strerror(errno));
  }

  void disconnect() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Writes as much of `out` as the socket takes.
  void flush(std::string& out) {
    while (!out.empty()) {
      const ssize_t n = ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        throw sbs::Error(std::string("send(): ") + std::strerror(errno));
      }
      out.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Reads every available reply; returns false on EOF.
  bool receive(std::vector<sbs::obs::JsonValue>& frames) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      throw sbs::Error(std::string("recv(): ") + std::strerror(errno));
    }
    while (std::optional<std::string> f = decoder_.next())
      frames.push_back(sbs::obs::parse_json(*f));
    return true;
  }

  static constexpr std::int64_t kStatsId = 1'000'000'000;
  static constexpr std::int64_t kNoProgressNs = 30'000'000'000;

  Replay start_replay(std::int64_t start) {
    const std::size_t n = due_ns_.size();
    Replay rep;
    rep.start = start;
    rep.sent.assign(n, 0);
    rep.replied.assign(n, 0);
    rep.accepted.assign(n, 0);
    decoder_ = {};
    return rep;
  }

  /// Queues every submission due by now and writes what the socket takes.
  void send_due(Replay& rep) {
    const std::int64_t now = now_ns();
    while (rep.next < due_ns_.size() &&
           rep.start + due_ns_[rep.next] <= now) {
      const sbs::Job& j = order_[rep.next];
      sbs::obs::JsonWriter w;
      w.begin_object()
          .field("op", "submit")
          .field("id", static_cast<std::int64_t>(rep.next) + 1)
          .field("nodes", j.nodes)
          .field("runtime", static_cast<std::int64_t>(j.runtime))
          .field("requested", static_cast<std::int64_t>(j.requested))
          .field("user", j.user)
          .field("priority", 0)
          .end_object();
      sbs::service::encode_frame(w.str(), rep.out);
      rep.sent[rep.next] = now_ns();
      ++rep.next;
    }
    flush(rep.out);
  }

  void replay(Pass& pass, Replay& rep) {
    const std::size_t n = due_ns_.size();
    std::size_t answered = 0;
    std::int64_t stats_seq = 0, next_stats = rep.start;
    std::int64_t final_stats_id = -1;
    bool have_final = false;
    std::int64_t last_progress = now_ns();
    std::vector<sbs::obs::JsonValue> frames;

    while (!have_final) {
      send_due(rep);
      const std::int64_t now = now_ns();
      // serve-replay's traced run samples the queue through the stats op
      // every 100 ms; otherwise the client sends only its final stats
      // request.
      if (pass.traced && !backlog_ && rep.next < n && now >= next_stats) {
        sbs::service::encode_frame(
            "{\"op\":\"stats\",\"id\":" +
                std::to_string(kStatsId + stats_seq++) + "}",
            rep.out);
        next_stats = now + 100'000'000;
      }
      if (rep.next == n && answered == n && final_stats_id < 0) {
        final_stats_id = kStatsId + stats_seq++;
        sbs::service::encode_frame(
            "{\"op\":\"stats\",\"id\":" + std::to_string(final_stats_id) +
                "}",
            rep.out);
      }
      flush(rep.out);

      frames.clear();
      const bool open = receive(frames);
      const std::int64_t at = now_ns();
      for (const sbs::obs::JsonValue& f : frames) {
        last_progress = at;
        const sbs::obs::JsonValue* id = f.find("id");
        const sbs::obs::JsonValue* status = f.find("status");
        SBS_CHECK_MSG(id && status, "malformed reply");
        const std::int64_t rid = id->as_int();
        if (rid >= kStatsId) {
          if (rid == final_stats_id) {
            rep.final_stats = f;
            rep.end = at;
            have_final = true;
          } else if (const auto* q = f.find("queue_depth")) {
            rep.queue_depth.push_back(q->as_double());
          }
          continue;
        }
        SBS_CHECK_MSG(rid >= 1 && static_cast<std::size_t>(rid) <= n &&
                          rep.replied[static_cast<std::size_t>(rid - 1)] == 0,
                      "unexpected reply id " << rid);
        const auto k = static_cast<std::size_t>(rid - 1);
        rep.replied[k] = at;
        rep.accepted[k] = status->as_string() == "accepted";
        ++answered;
      }
      if (!open || at - last_progress > kNoProgressNs) break;  // unanswered

      // serve-replay's client spins rather than sleeping until the next
      // due time or reply: on virtual machines a sleeping thread can wake
      // milliseconds late, which would time the host's wake-ups instead
      // of the service. serve-backlog times no reply, so once a round
      // brings nothing its client waits in poll() and leaves the CPUs to
      // the service.
      if (backlog_ && frames.empty()) {
        pollfd p{fd_, static_cast<short>(POLLIN | (rep.out.empty() ? 0 : POLLOUT)),
                 0};
        ::poll(&p, 1, 100);
      }
    }

    if (!have_final) rep.end = now_ns();

    // Drain: the service stops admitting, fast-forwards its queued work
    // and returns from run().
    rep.out.clear();
    sbs::service::encode_frame(
        "{\"op\":\"drain\",\"id\":" +
            std::to_string(kStatsId + stats_seq++) + "}",
        rep.out);
    flush(rep.out);
    stop_ = true;
  }

  /// Checks the replay against the service's counters (`served` are the
  /// ones run() returned after the drain) and records its metrics.
  void summarize_replay(Pass& pass, const Replay& rep,
                        const sbs::service::ServiceStats& served) {
    const std::size_t n = due_ns_.size();
    const auto [lo, hi] = measured_range();
    std::uint64_t accepted = 0, unanswered = 0;
    std::vector<double> late_us, submit_us;
    late_us.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t due = rep.start + due_ns_[k];
      late_us.push_back(static_cast<double>(rep.sent[k] - due) / 1e3);
      if (rep.replied[k] == 0) {
        ++unanswered;
        continue;
      }
      if (rep.accepted[k]) ++accepted;
      if (k >= lo && k < hi)
        submit_us.push_back(static_cast<double>(rep.replied[k] - due) / 1e3);
    }
    // serve-backlog's jobs are counted by its schedule check.
    if (!backlog_) {
      pass.attempted += n;
      pass.failed += n - accepted;
    }

    // Client counts must reconcile exactly with the service's own, and the
    // drain must have finished every admitted job.
    const sbs::obs::JsonValue& s = rep.final_stats;
    const auto field = [&](const char* k) {
      const sbs::obs::JsonValue* v = s.find(k);
      return v ? v->as_double() : -1.0;
    };
    const double admitted = field("admitted");
    const double protocol_errors = field("protocol_errors");
    if (unanswered != 0 || admitted != static_cast<double>(accepted) ||
        protocol_errors != 0.0 || served.admitted != accepted ||
        served.completed != accepted) {
      pass.correct = false;
      pass.notes.push_back(
          "check FAILED " + opt_.workload + ": client accepted " +
          std::to_string(accepted) + ", unanswered " +
          std::to_string(unanswered) + "; service admitted " + fmt(admitted) +
          ", protocol_errors " + fmt(protocol_errors) + ", completed " +
          std::to_string(served.completed) + " of " +
          std::to_string(served.admitted) + " after the drain");
    }
    pass.layer["service.admitted"] = static_cast<double>(served.admitted);
    pass.layer["service.rejected"] =
        static_cast<double>(served.rejected_backpressure +
                            served.rejected_shed + served.rejected_drain);
    if (backlog_) {
      pass.layer["service.decisions"] = static_cast<double>(served.decisions);
      return;
    }

    pass.notes.push_back("digest serve-replay n/a (decisions follow the wall "
                         "clock); submissions " + std::to_string(n) +
                         " accepted " + std::to_string(accepted));
    // Submission latency is printed, not gated: it follows the host's
    // thread wake-ups more than the service (see README.md).
    const TimingSummary submit = summarize_timing(submit_us);
    std::sort(submit_us.begin(), submit_us.end());
    pass.notes.push_back(
        "submit_p50_us " + fmt(submit.p50) + " submit_p99_us " +
        fmt(submit_us.empty() ? 0.0 : nearest_rank(submit_us, 0.99)) +
        " (n=" + std::to_string(submit.n) + ", due time to reply, "
        "warm-up and cool-down tenths excluded)");

    const auto decisions = static_cast<std::size_t>(field("decisions"));
    think_.n = decisions;
    think_.p50 = field("think_p50_us");
    think_.tail_q = samples_beyond(decisions, 0.99) >= 10 ? 0.99 : 0.0;
    think_.tail = field("think_p99_us");

    // How late the client sent; it spins, so this stays small. Printed
    // only: it reads 0 on every gated workload.
    std::sort(late_us.begin(), late_us.end());
    pass.notes.push_back("bench.gen_late_p99_us " +
                         fmt(nearest_rank(late_us, 0.99)));
    pass.layer["service.think_p50_us"] = think_.p50;
    pass.layer["service.think_p99_us"] = think_.tail;
    pass.layer["service.decisions"] = field("decisions");
    pass.layer["service.queue_depth_mean"] =
        rep.queue_depth.empty()
            ? 0.0
            : std::accumulate(rep.queue_depth.begin(), rep.queue_depth.end(),
                              0.0) /
                  static_cast<double>(rep.queue_depth.size());
  }

  /// serve-backlog: rebuilds the schedule from the service's telemetry and
  /// puts it through the same checker as the simulated workloads, and
  /// takes every decision's think time from the decision records. As for
  /// the simulated workloads, the decision times leave out the calls where
  /// no queued job fits the free nodes.
  void check_backlog(Pass& pass) {
    const std::size_t n = due_ns_.size();
    std::vector<sbs::JobOutcome> outcomes(n);
    for (sbs::JobOutcome& o : outcomes) o.completed = false;
    pass.probe.begin_run(n, 1);
    std::multiset<int> waiting_nodes;
    std::vector<double> think_us;
    double depth_sum = 0.0;
    const auto index = [&](std::int64_t id) {
      SBS_CHECK_MSG(id >= 0 && static_cast<std::size_t>(id) < n,
                    "serve-backlog: telemetry names unknown job " << id);
      return static_cast<std::size_t>(id);
    };
    const auto job_of = [&](const sbs::obs::JsonValue& v) {
      return index(v.find("job")->as_int());
    };
    for (const std::string& line : telemetry_lines_) {
      const sbs::obs::JsonValue v = sbs::obs::parse_json(line);
      const std::string& type = v.find("type")->as_string();
      const auto t = [&] { return v.find("t")->as_int(); };
      if (type == "submit") {
        sbs::JobOutcome& o = outcomes[job_of(v)];
        o.job.id = static_cast<int>(job_of(v));
        o.job.submit = t();
        o.job.nodes = static_cast<int>(v.find("nodes")->as_int());
        o.job.runtime = v.find("runtime")->as_int();
        waiting_nodes.insert(o.job.nodes);
      } else if (type == "start") {
        sbs::JobOutcome& o = outcomes[job_of(v)];
        o.start = t();
        const auto it = waiting_nodes.find(o.job.nodes);
        if (it != waiting_nodes.end()) waiting_nodes.erase(it);
      } else if (type == "finish") {
        sbs::JobOutcome& o = outcomes[job_of(v)];
        o.end = t();
        o.completed = true;
      } else if (type == "decision") {
        depth_sum += v.find("queue_depth")->as_double();
        for (const sbs::obs::JsonValue& id : v.find("started")->array)
          ++pass.probe.starts[index(id.as_int())];
        const double us = v.find("think_us")->as_double();
        think_us.push_back(us);
        if (!waiting_nodes.empty() &&
            *waiting_nodes.begin() <= v.find("free_nodes")->as_int())
          pass.probe.decide_us.push_back(us);
        else
          ++pass.probe.idle_decisions;
      }
    }
    // The service's clock follows the wall clock, so the schedule, and
    // with it the digest, may differ between phases: it is printed, never
    // compared.
    Digest d;
    const int cap = trace_.capacity;
    account(pass, "serve-backlog", outcomes, {}, {&cap, 1}, d);
    if (pass.wall_s.size() == 1)
      pass.notes.push_back("digest serve-backlog " + d.hex() +
                           " (first run phase; not compared)");
    std::sort(think_us.begin(), think_us.end());
    if (!think_us.empty()) {
      pass.layer["service.think_p50_us"] = nearest_rank(think_us, 0.5);
      pass.layer["service.think_p99_us"] = nearest_rank(think_us, 0.99);
      pass.layer["service.queue_depth_mean"] =
          depth_sum / static_cast<double>(think_us.size());
    }
  }

  /// One span per answered submission, from its due time to its reply,
  /// under the open serve.* span; the id is the submission's index.
  void add_submit_spans(Pass& pass, const Replay& rep) {
    for (std::size_t k = 0; k < due_ns_.size(); ++k)
      if (rep.replied[k] != 0)
        pass.spans.add_closed("submit", rep.start + due_ns_[k],
                              rep.replied[k], static_cast<std::int64_t>(k));
  }

  Options opt_;
  bool backlog_;
  std::string socket_path_;
  sbs::Trace trace_;
  std::vector<sbs::Job> order_;  ///< this run phase's submissions
  std::vector<std::int64_t> due_ns_;
  std::vector<std::string> telemetry_lines_;
  std::unique_ptr<sbs::obs::Telemetry> telemetry_;  ///< outlives service_
  std::unique_ptr<sbs::service::SchedulerService> service_;
  std::atomic<bool> stop_{false};
  int fd_ = -1;
  sbs::service::FrameDecoder decoder_;
  TimingSummary think_;
};

}  // namespace

Pass::Pass(bool traced_run) : traced(traced_run) {
  if (traced) {
    probe.spans = &spans;
    probe.record_states = true;
  }
}

TimingSummary Workload::decide_timing(const Pass& pass) const {
  return summarize_timing(pass.probe.decide_us);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "month-hiload-L8k", "baseline-sweep-telemetry", "federation-3m-L4k",
      "serve-backlog", "serve-replay"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "month-hiload-L8k") return std::make_unique<MonthHiload>(o);
  if (o.workload == "baseline-sweep-telemetry")
    return std::make_unique<BaselineSweep>(o);
  if (o.workload == "federation-3m-L4k")
    return std::make_unique<FederationMonth>(o);
  if (o.workload == "serve-replay")
    return std::make_unique<ServeWorkload>(o, false);
  if (o.workload == "serve-backlog")
    return std::make_unique<ServeWorkload>(o, true);
  return nullptr;
}

}  // namespace perfbench
