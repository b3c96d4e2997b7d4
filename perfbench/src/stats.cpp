#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t n, double q) {
  // 1-based nearest rank; the small epsilon keeps q * n = 990.0000001 (a
  // floating-point artefact of 0.99 * 1000) from rounding up a rank.
  const auto r = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  return sorted[rank_of(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

TimingSummary summarize_timing(std::vector<double> samples) {
  TimingSummary t;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = nearest_rank(samples, 0.50);
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.75, 0.50}) {
    if (samples_beyond(t.n, q) >= 10) {
      t.tail_q = q;
      t.tail = nearest_rank(samples, q);
      break;
    }
  }
  return t;
}

std::string tail_label(const TimingSummary& t) {
  if (t.tail_q == 0.0) return "tail=n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g=%.6g", t.tail_q * 100.0, t.tail);
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

void Digest::add(std::int64_t v) {
  auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h_ ^= u & 0xffu;
    h_ *= 1099511628211ull;
    u >>= 8;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

}  // namespace perfbench
