// Tests of the benchmark's own helpers: span self time, the percentile
// rule and the schedule checker.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "check.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

Span span(const char* name, std::int64_t start, std::int64_t end,
          std::int32_t parent) {
  return Span{name, start, end, parent, -1};
}

TEST(SpanSelfTime, ParentMinusChildren) {
  // root [0,100) has children [10,30) and [50,60); the first child has a
  // grandchild [15,20) that counts against the child, not the root.
  const std::vector<Span> s = {span("root", 0, 100, -1),
                               span("a", 10, 30, 0), span("b", 50, 60, 0),
                               span("c", 15, 20, 1)};
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self, (std::vector<std::int64_t>{70, 15, 10, 5}));
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce) {
  // Pipelined children (serve-replay submissions) overlap: the parent
  // loses the union of their intervals, clipped to its own.
  const std::vector<Span> s = {span("root", 0, 100, -1),
                               span("x", 10, 40, 0), span("y", 30, 50, 0),
                               span("z", 90, 120, 0)};
  EXPECT_EQ(self_times(s)[0], 100 - 40 - 10);
}

TEST(SpanSelfTime, RecorderNestsAndTotals) {
  SpanRecorder rec;
  {
    ScopedSpan outer(&rec, "outer");
    { ScopedSpan inner(&rec, "inner", 7); }
    { ScopedSpan inner(&rec, "inner", 8); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[2].id, 8);
  const std::vector<SpanTotal> t = totals_by_name(rec.spans());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].name, "inner");
  EXPECT_EQ(t[1].count, 2u);
  EXPECT_EQ(t[0].self_ns, (rec.spans()[0].end - rec.spans()[0].start) -
                              t[1].total_ns);
  std::ostringstream dump;
  write_span_dump(dump, rec.spans());
  EXPECT_EQ(dump.str().rfind("name,id,parent,start_ns,end_ns,self_ns\n", 0),
            0u);
}

TEST(SpanSelfTime, NullRecorderIsANoOp) {
  ScopedSpan s(nullptr, "nothing");
  SUCCEED();
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i + 1;  // 1..100
  EXPECT_EQ(nearest_rank(v, 0.50), 50);
  EXPECT_EQ(nearest_rank(v, 0.99), 99);
  EXPECT_EQ(nearest_rank(v, 1.0), 100);
  std::vector<double> thousand(1000);
  for (int i = 0; i < 1000; ++i) thousand[i] = i + 1;
  EXPECT_EQ(nearest_rank(thousand, 0.99), 990);  // not 991: 0.99*1000 exact
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(PercentileRule, HighestTailWithTenSamplesBeyond) {
  const auto with_n = [](int n) {
    std::vector<double> v(n);
    for (int i = 0; i < n; ++i) v[i] = n - i;  // unsorted on purpose
    return summarize_timing(v);
  };
  EXPECT_DOUBLE_EQ(with_n(10000).tail_q, 0.999);
  EXPECT_DOUBLE_EQ(with_n(1000).tail_q, 0.99);
  EXPECT_DOUBLE_EQ(with_n(999).tail_q, 0.95);
  EXPECT_DOUBLE_EQ(with_n(100).tail_q, 0.90);
  EXPECT_DOUBLE_EQ(with_n(19).tail_q, 0.0);  // no valid tail
  EXPECT_EQ(tail_label(with_n(19)), "tail=n/a");
  const TimingSummary t = with_n(1000);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.p50, 500);
  EXPECT_EQ(t.tail, 990);
  EXPECT_EQ(tail_label(t), "p99=990");
}

TEST(PercentileRule, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

sbs::JobOutcome outcome(int id, int nodes, sbs::Time submit, sbs::Time start,
                        sbs::Time runtime) {
  sbs::JobOutcome o;
  o.job.id = id;
  o.job.nodes = nodes;
  o.job.submit = submit;
  o.job.runtime = runtime;
  o.job.in_window = true;
  o.start = start;
  o.end = start + runtime;
  return o;
}

TEST(ScheduleCheck, ValidScheduleFitsBackToBack) {
  // Two 6-node jobs on 8 nodes run back to back; the second starts the
  // instant the first ends, which frees its nodes.
  const std::vector<sbs::JobOutcome> o = {outcome(0, 6, 0, 0, 100),
                                          outcome(1, 6, 0, 100, 50),
                                          outcome(2, 2, 5, 10, 10)};
  const int cap = 8;
  const std::vector<std::uint32_t> starts = {1, 1, 1};
  const ScheduleCheck c = check_schedule(o, {}, {&cap, 1}, starts);
  EXPECT_TRUE(c.ok()) << (c.first_errors.empty() ? "" : c.first_errors[0]);
  EXPECT_EQ(c.in_window, 3u);
  EXPECT_EQ(c.failed_jobs(), 0u);
}

TEST(ScheduleCheck, OversubscribedScheduleFails) {
  const std::vector<sbs::JobOutcome> o = {outcome(0, 6, 0, 0, 100),
                                          outcome(1, 6, 0, 99, 50)};
  const int cap = 8;
  const ScheduleCheck c = check_schedule(o, {}, {&cap, 1}, {});
  EXPECT_FALSE(c.ok());
  ASSERT_FALSE(c.first_errors.empty());
  EXPECT_NE(c.first_errors[0].find("oversubscribed"), std::string::npos);
  EXPECT_EQ(c.failed_jobs(), 2u);  // every in-window job of the run
}

TEST(ScheduleCheck, CapacityIsPerMember) {
  // 6 + 6 nodes at once fit 16 federated nodes but not member 0's 8.
  const std::vector<sbs::JobOutcome> o = {outcome(0, 6, 0, 0, 100),
                                          outcome(1, 6, 0, 0, 100)};
  const std::vector<int> cap = {8, 8};
  EXPECT_TRUE(check_schedule(o, std::vector<int>{0, 1}, cap, {}).ok());
  EXPECT_FALSE(check_schedule(o, std::vector<int>{0, 0}, cap, {}).ok());
}

TEST(ScheduleCheck, RejectsEarlyStartWrongRuntimeAndRepeatedStarts) {
  const int cap = 8;
  std::vector<sbs::JobOutcome> early = {outcome(0, 1, 50, 40, 10)};
  EXPECT_FALSE(check_schedule(early, {}, {&cap, 1}, {}).ok());

  std::vector<sbs::JobOutcome> shortened = {outcome(0, 1, 0, 0, 10)};
  shortened[0].end = 5;
  EXPECT_FALSE(check_schedule(shortened, {}, {&cap, 1}, {}).ok());

  const std::vector<sbs::JobOutcome> once = {outcome(0, 1, 0, 0, 10)};
  const std::vector<std::uint32_t> twice = {2};
  EXPECT_FALSE(check_schedule(once, {}, {&cap, 1}, twice).ok());

  std::vector<sbs::JobOutcome> lost = {outcome(0, 1, 0, 0, 10)};
  lost[0].completed = false;
  const ScheduleCheck c = check_schedule(lost, {}, {&cap, 1}, {});
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.not_completed, 1u);
}

}  // namespace
}  // namespace perfbench
