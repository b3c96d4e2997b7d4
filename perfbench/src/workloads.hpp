#pragma once

// The benchmark's five workloads. Each builds its inputs in-process from
// the workload seed, runs the program through its libraries, checks the
// outcome and reports the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/search_scheduler.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2005;   ///< jitters the inputs (see workloads.cpp)
  double seconds = 10.0;       ///< run-phase length to measure
  bool trace = false;          ///< traced run: per-layer metrics
  std::string out_dir = ".";   ///< span dumps and temporary files
};

/// Everything one pass (a setup plus run phases) gathers.
struct Pass {
  Probe probe;
  SpanRecorder spans;
  bool traced = false;

  std::vector<double> setup_s;     ///< one per setup
  double peak_rss_mb = 0.0;        ///< after the first run phase
  std::vector<double> wall_s;      ///< one per run phase

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string digest;              ///< first run phase's digest (W1-W3)
  std::vector<std::string> notes;  ///< printed before the result line
  std::map<std::string, double> layer;  ///< workload-specific layer metrics

  explicit Pass(bool traced_run);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and constructs what the first run phase starts
  /// from. The caller times it as setup_s.
  virtual void setup(Pass& pass) = 0;

  /// One run phase; appends its wall time to pass.wall_s.
  virtual void run(Pass& pass) = 0;

  /// select_jobs latency as the workload can observe it.
  virtual TimingSummary decide_timing(const Pass& pass) const;

  /// Search config to replay recorded decisions with (null: no search).
  virtual const sbs::SearchSchedulerConfig* search_config() const {
    return nullptr;
  }
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// Names of the five workloads; BENCHMARK.json gates the first four.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
