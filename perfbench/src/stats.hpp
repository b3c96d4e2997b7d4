#pragma once

// The benchmark's reporting rules for timings and digests.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples (q in (0, 1]). Requires a non-empty, sorted input.
double nearest_rank(std::span<const double> sorted, double q);

/// How many samples lie strictly beyond the nearest-rank q-th percentile.
std::size_t samples_beyond(std::size_t n, double q);

/// A timing distribution as the benchmark reports it: the median and the
/// highest percentile (from 99.9, 99, 95, 90, 75, 50) with at least ten
/// samples beyond it, with the sample count.
struct TimingSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< e.g. 0.99; 0 when n < 20 (no valid tail)
  double tail = 0.0;
};
TimingSummary summarize_timing(std::vector<double> samples);

/// "p99=412.5" style rendering of the tail rule, or "tail=n/a".
std::string tail_label(const TimingSummary& t);

/// Median of a small sample (mean of the middle two for even counts).
double median(std::vector<double> v);

/// FNV-1a 64-bit, folded over 64-bit words.
class Digest {
 public:
  void add(std::int64_t v);
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace perfbench
