// perfbench: the end-to-end benchmark of sbsched.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--out-dir DIR]
//
// The untraced run (--trace 0) sets the workload up several times, runs it
// for --seconds, checks every schedule and prints the end-to-end metrics.
// The traced run (--trace 1) runs it once untraced and once traced, replays
// the recorded search decisions, writes the span dump to --out-dir and
// prints the per-layer metrics. Either way the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "replay.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// An untraced run sets the workload up at least kMinSetups times and until
// kSetupBudgetS seconds have passed (at most kMaxSetups); setup_s is the
// median of their process CPU times (see cpu_ns), since set-up is the
// benchmark's single-threaded work and its wall time follows the host's
// load. With five setups in 2 s on the wall clock, setup_s spread by
// 0.21-0.45 between the quartiles of ten runs.
constexpr int kMinSetups = 9;
constexpr int kMaxSetups = 100;
constexpr double kSetupBudgetS = 2.0;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< human-readable only (sample counts, n/a reasons)
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n"
            << "workloads:";
  for (const std::string& n : workload_names()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(key + " needs a value");
    }
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (key == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

std::string timing_note(const TimingSummary& t) {
  return "n=" + std::to_string(t.n) + " " + tail_label(t);
}

std::string decide_note(const TimingSummary& t, const Probe& p) {
  if (p.decide_us.empty()) return timing_note(t) + " (service stats op)";
  return timing_note(t) + " (" + std::to_string(p.idle_decisions) +
         " decisions with no fitting job excluded)";
}

/// Sets the workload up (see kMinSetups; once for a single run), then
/// runs it until `seconds` of run phases have passed, or once.
void run_pass(Workload& w, Pass& pass, double seconds, bool single_run) {
  const std::int64_t setup_start = now_ns();
  do {
    const std::int64_t t0 = cpu_ns();
    w.setup(pass);
    pass.setup_s.push_back(sec(cpu_ns() - t0));
  } while (!single_run && pass.setup_s.size() < kMaxSetups &&
           (pass.setup_s.size() < kMinSetups ||
            sec(now_ns() - setup_start) < kSetupBudgetS));
  const std::int64_t start = now_ns();
  w.run(pass);
  // Later run phases add only the benchmark's own samples.
  pass.peak_rss_mb = peak_rss_mb();
  while (!single_run && sec(now_ns() - start) < seconds) w.run(pass);
}

/// Nearest-rank p99 of the samples, or `fallback` when there are none.
double p99_of(std::vector<double> samples, double fallback) {
  if (samples.empty()) return fallback;
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 0.99);
}

std::vector<Metric> end_to_end(const Workload& w, const Pass& pass) {
  // The service reports its own decision percentiles (decide_timing), so
  // serve-replay has no per-call samples here.
  const TimingSummary decide = w.decide_timing(pass);
  std::vector<Metric> m = {
      {"setup_s", "s", median(pass.setup_s),
       "median of " + std::to_string(pass.setup_s.size()) + " setups"},
      {"wall_s", "s", median(pass.wall_s),
       "median of " + std::to_string(pass.wall_s.size()) + " run phases"},
      {"decide_p50_us", "us", decide.p50, decide_note(decide, pass.probe)},
      {"decide_p99_us", "us", p99_of(pass.probe.decide_us, decide.tail),
       decide_note(decide, pass.probe)},
      {"peak_rss_mb", "MB", pass.peak_rss_mb, "after the first run phase"},
  };
  return m;
}

/// Per-name span totals of the traced pass; a name never seen reads 0.
class SpanTotals {
 public:
  explicit SpanTotals(const Pass& traced)
      : totals_(totals_by_name(traced.spans.spans())) {}

  double total_s(std::string_view name) const {
    return sec(get(name).total_ns);
  }
  double self_s(std::string_view name) const {
    return sec(get(name).self_ns);
  }
  double count(std::string_view name) const {
    return static_cast<double>(get(name).count);
  }

 private:
  SpanTotal get(std::string_view name) const {
    for (const SpanTotal& t : totals_)
      if (t.name == name) return t;
    return {};
  }
  std::vector<SpanTotal> totals_;
};

std::vector<Metric> per_layer(const Pass& traced, const Pass& untraced,
                              const ReplayTotals& r) {
  const Probe& p = traced.probe;
  const SpanTotals spans(traced);
  const double search_select_s = spans.total_s(kSearchSelectSpan);
  const double other_select_s = spans.total_s(kOtherSelectSpan);
  const double sim_run_s = spans.total_s("simulate");
  const double search_s = spans.total_s("run_search");
  const auto layer = [&](const char* k) {
    const auto it = traced.layer.find(k);
    return it == traced.layer.end() ? 0.0 : it->second;
  };
  double member_max = 0.0, member_sum = 0.0;
  for (const std::int64_t ns : p.member_select_ns) {
    member_max = std::max(member_max, sec(ns));
    member_sum += sec(ns);
  }
  const double member_mean =
      p.member_select_ns.empty()
          ? 0.0
          : member_sum / static_cast<double>(p.member_select_ns.size());
  const bool fed = spans.count("federation.run") > 0;
  const double lookups = static_cast<double>(r.cache_hits + r.cache_misses);
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return {
      {"workload.generate_s", "s", spans.total_s("generate"), ""},
      {"exp.thresholds_s", "s", spans.total_s("thresholds"), ""},
      {"core.select_s", "s", search_select_s, ""},
      {"core.searched", "count", static_cast<double>(r.searched), ""},
      {"core.problem_build_s", "s", spans.total_s("from_state"), ""},
      {"core.search_s", "s", search_s, ""},
      {"core.nodes", "count", static_cast<double>(r.nodes), ""},
      {"core.nodes_per_s", "1/s",
       ratio(static_cast<double>(r.nodes), search_s), ""},
      {"core.paths", "count", static_cast<double>(r.paths), ""},
      {"core.exhausted_share", "ratio",
       ratio(static_cast<double>(r.exhausted),
             static_cast<double>(r.searched)),
       ""},
      {"core.cache_hit_ratio", "ratio",
       ratio(static_cast<double>(r.cache_hits), lookups), ""},
      {"core.pruned_twins", "count", static_cast<double>(r.pruned_twins), ""},
      {"core.pruned_bound", "count", static_cast<double>(r.pruned_bound), ""},
      {"sim.run_s", "s", sim_run_s, ""},
      {"sim.self_s", "s",
       sim_run_s > 0 ? sim_run_s - search_select_s - other_select_s : 0.0, ""},
      {"sim.decisions", "count", static_cast<double>(p.decisions), ""},
      {"sim.mean_queue", "count",
       ratio(p.queue_sum, static_cast<double>(p.decisions)), ""},
      {"policies.select_s", "s", other_select_s, ""},
      {"obs.sink_write_s", "s",
       spans.total_s("sink.write") + spans.total_s("sink.flush"), ""},
      {"obs.records", "count", spans.count("sink.write"), ""},
      {"obs.bytes", "bytes", static_cast<double>(p.bytes), ""},
      {"fed.self_s", "s", spans.self_s("federation.run"), ""},
      {"fed.route_s", "s", spans.total_s("route"), ""},
      {"fed.routes", "count", spans.count("route"), ""},
      {"fed.migrations", "count", layer("fed.migrations"), ""},
      {"fed.member_select_max_s", "s", fed ? member_max : 0.0, ""},
      {"fed.member_imbalance", "ratio",
       fed ? ratio(member_max, member_mean) : 0.0, ""},
      {"service.think_p50_us", "us", layer("service.think_p50_us"), ""},
      {"service.think_p99_us", "us", layer("service.think_p99_us"), ""},
      {"service.decisions", "count", layer("service.decisions"), ""},
      {"service.queue_depth_mean", "count", layer("service.queue_depth_mean"),
       ""},
      {"service.admitted", "count", layer("service.admitted"), ""},
      {"service.rejected", "count", layer("service.rejected"), ""},
      {"metrics.avg_wait_h", "h", layer("metrics.avg_wait_h"), ""},
      {"metrics.max_wait_h", "h", layer("metrics.max_wait_h"), ""},
      {"metrics.avg_bsld", "ratio", layer("metrics.avg_bsld"), ""},
      {"metrics.excess_wait_h", "h", layer("metrics.excess_wait_h"), ""},
      {"bench.trace_overhead", "ratio",
       ratio(median(traced.wall_s), median(untraced.wall_s)), ""},
  };
}

void print_span_totals(const Pass& pass) {
  std::printf("spans (count, total s, self s):\n");
  for (const SpanTotal& t : totals_by_name(pass.spans.spans()))
    std::printf("  %-16s %10llu %12.6f %12.6f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), sec(t.total_ns),
                sec(t.self_ns));
}

int run(const Options& opt) {
  std::unique_ptr<Workload> w = make_workload(opt);
  if (!w) usage("unknown workload " + opt.workload);
  std::filesystem::create_directories(opt.out_dir);

  Pass pass(false);
  run_pass(*w, pass, opt.seconds, opt.trace);
  bool correct = pass.correct;
  std::uint64_t attempted = pass.attempted, failed = pass.failed;
  std::vector<Metric> metrics;

  if (!opt.trace) {
    metrics = end_to_end(*w, pass);
  } else {
    Pass traced(true);
    run_pass(*w, traced, opt.seconds, true);
    // A failed cross-check fails every job of the traced run.
    const auto fail_traced = [&](const std::string& why) {
      traced.correct = false;
      traced.failed = traced.attempted;
      traced.notes.push_back("check FAILED " + why);
    };
    if (traced.digest != pass.digest)
      fail_traced("the traced run's schedule digest " + traced.digest +
                  " differs from the untraced " + pass.digest);
    ReplayTotals r;
    if (const sbs::SearchSchedulerConfig* cfg = w->search_config()) {
      r = replay_decisions(traced.probe.states, *cfg, &traced.spans);
      traced.notes.push_back("replay " + std::to_string(r.searched) +
                             " searched decisions, " +
                             std::to_string(r.mismatches) + " mismatches");
      if (r.mismatches != 0) {
        fail_traced("replay agreement");
        for (const std::string& m : r.first_mismatches)
          traced.notes.push_back("  " + m);
      }
    }
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = per_layer(traced, pass, r);
    const std::filesystem::path dump =
        std::filesystem::path(opt.out_dir) /
        ("spans-" + opt.workload + ".csv");
    std::ofstream out(dump);
    write_span_dump(out, traced.spans.spans());
    for (const std::string& n : traced.notes)
      pass.notes.push_back("traced: " + n);
    pass.notes.push_back("span dump " + dump.string() + " (" +
                         std::to_string(traced.spans.spans().size()) +
                         " spans)");
    print_span_totals(traced);
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "hardware_concurrency=%u affinity_cpus=%u build=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), affinity_cpus(),
              PERFBENCH_BUILD_TYPE);
  for (const std::string& n : pass.notes) std::printf("%s\n", n.c_str());
  const double failed_share =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;
  std::printf("%-26s %14.6g %-6s (%llu of %llu jobs or submissions)\n",
              "failed_share", failed_share, "ratio",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics)
    std::printf("%-26s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
