#include "samples.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(SummarizeTest, EmptyInputIsZero) {
  Summary s = Summarize({}, 99);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.median, 0.0);
  EXPECT_EQ(s.tail, 0.0);
}

TEST(SummarizeTest, MedianIsNearestRankAndOrderFree) {
  Summary s = Summarize({5, 1, 4, 2, 3}, 99);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.median, 3.0);
}

TEST(SummarizeTest, NamedPercentileWhenTenSamplesLieBeyondIt) {
  // 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
  Summary s = Summarize(OneTo(1000), 99);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.median, 500.0);
}

TEST(SummarizeTest, FallsBackToTheHighestPercentileWithTenBeyond) {
  // 999 samples leave only nine beyond p99; p98 (rank 980) keeps 19.
  Summary s = Summarize(OneTo(999), 99);
  EXPECT_EQ(s.tail_percentile, 98.0);
  EXPECT_EQ(s.tail, 980.0);
  // 150 samples: p95 leaves 7, p90 leaves 15.
  s = Summarize(OneTo(150), 99);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_EQ(s.tail, 135.0);
}

TEST(SummarizeTest, NeverReportsAboveTheNamedPercentile) {
  Summary s = Summarize(OneTo(100000), 90);
  EXPECT_EQ(s.tail_percentile, 90.0);
  EXPECT_EQ(s.tail, 90000.0);
}

TEST(SummarizeTest, TooFewSamplesReportTheMedianAsTail) {
  Summary s = Summarize(OneTo(12), 99);
  EXPECT_EQ(s.tail_percentile, 50.0);
  EXPECT_EQ(s.tail, s.median);
}

TEST(MedianTest, EvenCountTakesTheLowerMiddle) {
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.0);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(WindowedSummaryTest, OneStalledWindowDoesNotMoveTheRunFigure) {
  // Five one-second windows of 200 samples; window 2 holds a 100x stall
  // in its slowest ten percent.
  std::vector<TimedSample> samples;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 200; ++i) {
      double value = 1.0 + i / 200.0;  // 1.0 .. 1.995
      if (w == 2 && i >= 180) value = 100.0;
      samples.push_back({w + i / 200.0, value});
    }
  }
  Summary whole = Summarize([&] {
    std::vector<double> v;
    for (const TimedSample& s : samples) v.push_back(s.value);
    return v;
  }(), 99);
  EXPECT_EQ(whole.tail, 100.0);  // the run-wide p99 is the stall
  Summary windowed = WindowedSummary(samples, 1.0, 100, 99);
  EXPECT_EQ(windowed.count, 1000u);
  EXPECT_EQ(windowed.tail_percentile, 95.0);  // 200 per window: p95 has 10 beyond
  EXPECT_NEAR(windowed.tail, 1.945, 1e-12);
  EXPECT_NEAR(windowed.median, 1.495, 1e-12);
}

TEST(WindowedSummaryTest, SparseWindowsAreSkippedOrFallBackToTheRun) {
  std::vector<TimedSample> samples;
  for (int i = 0; i < 300; ++i) samples.push_back({i / 300.0, 2.0});
  samples.push_back({5.5, 50.0});  // a lone straggler in window 5
  Summary s = WindowedSummary(samples, 1.0, 100, 99);
  EXPECT_EQ(s.count, 301u);
  EXPECT_EQ(s.tail, 2.0);
  // No window has 1000 samples: the whole run is summarized instead.
  Summary fallback = WindowedSummary(samples, 1.0, 1000, 99);
  EXPECT_EQ(fallback.tail_percentile, 95.0);
  EXPECT_EQ(fallback.median, 2.0);
}

TEST(OpenLoopScheduleTest, DueTimesFollowTheRateNotTheAcks) {
  OpenLoopSchedule schedule(10.0, 4.0);  // one op every 0.25 s
  EXPECT_DOUBLE_EQ(schedule.DueAt(0), 10.0);
  EXPECT_DOUBLE_EQ(schedule.DueAt(4), 11.0);
}

TEST(OpenLoopScheduleTest, AStallIsChargedToEveryOperationQueuedBehindIt) {
  OpenLoopSchedule schedule(0.0, 10.0);  // due at 0.0, 0.1, 0.2, ...
  // Op 0 is sent on time and stalls for 0.35 s.
  EXPECT_DOUBLE_EQ(schedule.Record(0, 0.0, 0.35), 0.35);
  // Ops 1..3 could only be sent once op 0 returned; each takes 0.01 s of
  // service but is charged from its due time.
  EXPECT_NEAR(schedule.Record(1, 0.35, 0.36), 0.26, 1e-12);
  EXPECT_NEAR(schedule.Record(2, 0.36, 0.37), 0.17, 1e-12);
  EXPECT_NEAR(schedule.Record(3, 0.37, 0.38), 0.08, 1e-12);
  // Op 4 is due at 0.4, after the backlog cleared: back to service time.
  EXPECT_NEAR(schedule.Record(4, 0.40, 0.41), 0.01, 1e-12);

  ASSERT_EQ(schedule.lateness().size(), 5u);
  EXPECT_DOUBLE_EQ(schedule.lateness()[0], 0.0);
  EXPECT_NEAR(schedule.lateness()[1], 0.25, 1e-12);
  EXPECT_NEAR(schedule.lateness()[3], 0.07, 1e-12);
  EXPECT_DOUBLE_EQ(schedule.lateness()[4], 0.0);
  // A closed loop would have reported 0.35 then four 0.01 s acks; the
  // open-loop median keeps the queueing the stall caused.
  EXPECT_NEAR(Median(schedule.latencies()), 0.17, 1e-12);
}

TEST(OpenLoopScheduleTest, EarlySendsCountNoNegativeLateness) {
  OpenLoopSchedule schedule(1.0, 1.0);
  schedule.Record(0, 0.9, 1.05);
  EXPECT_DOUBLE_EQ(schedule.lateness()[0], 0.0);
  EXPECT_NEAR(schedule.latencies()[0], 0.05, 1e-12);
}

}  // namespace
}  // namespace perfbench
