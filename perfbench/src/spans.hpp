#pragma once

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around calls into the program's layers (it adds no
// instrumentation to the program itself), kept in memory, and written out
// once the run ends.

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

/// CPU time of the whole process in nanoseconds (CLOCK_PROCESS_CPUTIME_ID,
/// every thread). The kernel leaves out the time a virtual machine's CPU
/// was taken by its host (steal time) and the time the threads waited for
/// a CPU. One reading is a system call of a few hundred nanoseconds.
std::int64_t cpu_ns();

struct Span {
  const char* name = "";    ///< static string: one of the boundary names
  std::int64_t start = 0;   ///< now_ns() at entry
  std::int64_t end = 0;     ///< now_ns() at exit
  std::int32_t parent = -1; ///< index of the enclosing span, -1 = root
  std::int64_t id = -1;     ///< decision number or job id shared by one
                            ///  decision's or one job's spans (-1 = none)
};

/// One thread's span stack. Spans nest strictly: end() closes the most
/// recently opened span. A null recorder pointer is the untraced run, so
/// call sites test the pointer rather than a flag.
class SpanRecorder {
 public:
  std::size_t begin(const char* name, std::int64_t id = -1);
  void end(std::size_t index);

  /// Records a span timed elsewhere (a serve-replay submission, timed by
  /// the client loop) as a child of the innermost open span.
  void add_closed(const char* name, std::int64_t start, std::int64_t end,
                  std::int64_t id = -1);

  /// Closed spans only once every begin() has been matched by end().
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: no-op when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t id = -1)
      : rec_(rec), index_(rec ? rec->begin(name, id) : 0) {}
  ~ScopedSpan() {
    if (rec_) rec_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::size_t index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may not overlap each other in
/// a single-threaded recorder, but the union is taken anyway).
std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Per-name totals over a span set, in first-seen order.
struct SpanTotal {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
std::vector<SpanTotal> totals_by_name(std::span<const Span> spans);

/// Writes one line per span: name,id,parent,start_ns,end_ns,self_ns, with
/// times relative to the earliest span start.
void write_span_dump(std::ostream& out, std::span<const Span> spans);

}  // namespace perfbench
