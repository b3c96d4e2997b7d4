#include "spans.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

std::size_t SpanRecorder::begin(const char* name, std::int64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  spans_[index].end = now_ns();
  if (!open_.empty() && static_cast<std::size_t>(open_.back()) == index)
    open_.pop_back();
}

void SpanRecorder::add_closed(const char* name, std::int64_t start,
                              std::int64_t end, std::int64_t id) {
  spans_.push_back(
      Span{name, start, end, open_.empty() ? -1 : open_.back(), id});
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans[i].start);
      hi = std::min(hi, spans[i].end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

std::vector<SpanTotal> totals_by_name(std::span<const Span> spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<SpanTotal> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const SpanTotal& t) {
      return t.name == spans[i].name;
    });
    if (it == out.end()) {
      out.push_back(SpanTotal{spans[i].name, 0, 0, 0});
      it = out.end() - 1;
    }
    ++it->count;
    it->total_ns += spans[i].end - spans[i].start;
    it->self_ns += self[i];
  }
  return out;
}

void write_span_dump(std::ostream& out, std::span<const Span> spans) {
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = spans.front().start;
    for (const Span& s : spans) origin = std::min(origin, s.start);
  }
  const std::vector<std::int64_t> self = self_times(spans);
  out << "name,id,parent,start_ns,end_ns,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.name << ',' << s.id << ',' << s.parent << ','
        << (s.start - origin) << ',' << (s.end - origin) << ',' << self[i]
        << '\n';
  }
}

}  // namespace perfbench
