// Tests of the benchmark's own helpers: percentile and tail selection with
// sample counts, the open-loop scheduler's due-time accounting, and the
// ladder's limit test and search.

#include "thorbench/src/stats.h"

#include <gtest/gtest.h>

namespace thorbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(Percentile, NearestRank) {
  std::vector<double> sorted = Iota(100);
  EXPECT_EQ(PercentileSorted(sorted, 50), 50);
  EXPECT_EQ(PercentileSorted(sorted, 99), 99);
  EXPECT_EQ(PercentileSorted(sorted, 100), 100);
  EXPECT_EQ(PercentileSorted(sorted, 0), 1);
  EXPECT_EQ(PercentileSorted({}, 50), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
}

TEST(Tail, PicksHighestPercentileWithTenBeyond) {
  Tail tail = SelectTail(Iota(1000));
  EXPECT_EQ(tail.percentile, 90);
  EXPECT_EQ(tail.value, 900);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 100u);

  tail = SelectTail(Iota(100));
  EXPECT_EQ(tail.percentile, 90);
  EXPECT_EQ(tail.value, 90);
  EXPECT_EQ(tail.beyond, 10u);

  // 99 samples: p90 would leave only 9 beyond, so the median is reported.
  tail = SelectTail(Iota(99));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.beyond, 49u);

  // A longer ladder climbs as far as the sample allows.
  tail = SelectTail(Iota(999), 10, {50.0, 90.0, 99.0});
  EXPECT_EQ(tail.percentile, 90);
  tail = SelectTail(Iota(1000), 10, {50.0, 90.0, 99.0});
  EXPECT_EQ(tail.percentile, 99);
  EXPECT_EQ(tail.value, 990);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(Tail, ShortSampleFallsBackToLowestRungWithItsCount) {
  Tail tail = SelectTail(Iota(12));
  EXPECT_EQ(tail.percentile, 50);
  EXPECT_EQ(tail.value, 6);
  EXPECT_EQ(tail.beyond, 6u);
  EXPECT_EQ(tail.samples, 12u);
}

TEST(Tail, OrderDoesNotMatter) {
  std::vector<double> values = Iota(1000);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(SelectTail(values).value, 900);
}

TEST(WindowedTail, OneStalledWindowDoesNotMoveTheFigure) {
  std::vector<double> values(5000, 1.0);
  // A stall: a run of 150 slow samples inside the ninth window.
  for (size_t i = 2050; i < 2200; ++i) values[i] = 40.0;
  WindowedTail windowed = SelectWindowedTail(values);
  EXPECT_EQ(windowed.windows, 20u);
  EXPECT_EQ(windowed.window_samples, 250u);
  EXPECT_EQ(windowed.tail.percentile, 90);
  EXPECT_EQ(windowed.tail.samples, 5000u);
  EXPECT_EQ(windowed.tail.value, 1.0);
  // That window alone sees the stall.
  std::vector<double> ninth(values.begin() + 2000, values.begin() + 2250);
  EXPECT_EQ(SelectTail(ninth).value, 40.0);
}

TEST(WindowedTail, StallOverNearlyHalfTheRunDoesNotMoveTheFigure) {
  std::vector<double> values(5000, 1.0);
  for (size_t i = 0; i < 2250; ++i) values[i] = 40.0;
  EXPECT_EQ(SelectWindowedTail(values).tail.value, 1.0);
}

TEST(WindowedTail, LastingOverloadMovesTheFigure) {
  std::vector<double> values(5000, 1.0);
  for (size_t w = 0; w < 20; ++w) {
    for (size_t i = 0; i < 30; ++i) values[w * 250 + i] = 9.0;
  }
  EXPECT_EQ(SelectWindowedTail(values).tail.value, 9.0);
}

TEST(WindowedTail, ShortSampleIsOneWindow) {
  WindowedTail windowed = SelectWindowedTail(Iota(400));
  EXPECT_EQ(windowed.windows, 1u);
  EXPECT_EQ(windowed.tail.percentile, 90);
  EXPECT_EQ(windowed.tail.value, 360);
}

TEST(OpenLoopSchedule, DueTimesFollowTheRateNotTheSends) {
  OpenLoopSchedule schedule(/*rate_per_s=*/1000.0, /*start_ms=*/100.0);
  EXPECT_DOUBLE_EQ(schedule.Due(0), 100.0);
  EXPECT_DOUBLE_EQ(schedule.Due(5), 105.0);
  EXPECT_EQ(schedule.DueBy(99.9), 0u);
  EXPECT_EQ(schedule.DueBy(100.0), 1u);
  EXPECT_EQ(schedule.DueBy(104.5), 5u);
  // Sending late does not shift later due times.
  EXPECT_DOUBLE_EQ(schedule.RecordSend(0, 103.0), 3.0);
  EXPECT_DOUBLE_EQ(schedule.Due(1), 101.0);
  EXPECT_DOUBLE_EQ(schedule.RecordSend(1, 103.0), 2.0);
  // Never early: a send before its due time has zero lateness.
  EXPECT_DOUBLE_EQ(schedule.RecordSend(2, 101.0), 0.0);
  EXPECT_DOUBLE_EQ(schedule.max_lag_ms(), 3.0);
  // Three sends are one short window: its tail is the median lateness.
  EXPECT_DOUBLE_EQ(schedule.LagTail(), 2.0);
}

RungStats Healthy() {
  RungStats rung;
  rung.rate = 10000;
  rung.sent = rung.ok = 5000;
  rung.tail.value = 0.5;
  rung.backlog_first = rung.backlog_second = 3.0;
  return rung;
}

TEST(Ladder, LimitTest) {
  LadderLimits limits;
  EXPECT_EQ(Judge(Healthy(), limits), RungVerdict::kPass);

  RungStats slow = Healthy();
  slow.tail.value = 2.0;  // at the limit is over it
  EXPECT_EQ(Judge(slow, limits), RungVerdict::kSlow);

  RungStats shed = Healthy();
  shed.ok -= 1;
  shed.shed = 1;
  EXPECT_EQ(Judge(shed, limits), RungVerdict::kDropped);

  RungStats lost = Healthy();
  lost.ok -= 1;
  EXPECT_EQ(Judge(lost, limits), RungVerdict::kDropped);

  RungStats growing = Healthy();
  growing.backlog_second = 2.0 * 3.0 + 64.0 + 1.0;
  EXPECT_EQ(Judge(growing, limits), RungVerdict::kBacklog);

  // A late generator invalidates the rung whatever else it measured.
  RungStats late = slow;
  late.lag_tail_ms = 1.5;
  EXPECT_EQ(Judge(late, limits), RungVerdict::kInvalid);
}

TEST(Ladder, RatesAreGeometric) {
  std::vector<double> rates = LadderRates(1000, 2000, 1.1);
  ASSERT_EQ(rates.size(), 8u);
  EXPECT_EQ(rates.front(), 1000);
  EXPECT_EQ(rates[1], 1100);
  EXPECT_LE(rates.back(), 2000);
}

/// Drives a search against a knee: rungs below `knee` pass.
double Search(size_t rungs, size_t stride, size_t start, size_t knee,
              std::vector<long>* visited) {
  std::vector<double> rates;
  for (size_t i = 0; i < rungs; ++i) rates.push_back(100.0 * (i + 1));
  LadderSearch search(rates, stride, start);
  for (long next = search.Next(); next >= 0; next = search.Next()) {
    visited->push_back(next);
    search.Record(static_cast<size_t>(next) < knee);
  }
  return search.best_rate();
}

TEST(Ladder, CoarseUpThenFine) {
  std::vector<long> visited;
  // Rungs 0..6 pass, 7 fails.
  EXPECT_EQ(Search(20, 4, 0, 7, &visited), 700);
  EXPECT_EQ(visited, (std::vector<long>{0, 4, 8, 5, 6, 7}));
}

TEST(Ladder, CoarseDownThenFine) {
  std::vector<long> visited;
  // Start above the knee: walk down until a rung passes, then refine up.
  EXPECT_EQ(Search(20, 4, 12, 6, &visited), 600);
  EXPECT_EQ(visited, (std::vector<long>{12, 8, 4, 5, 6}));
}

TEST(Ladder, NeverClaimsAFailedRung) {
  std::vector<long> visited;
  EXPECT_EQ(Search(20, 4, 6, 0, &visited), 0);
  EXPECT_EQ(visited, (std::vector<long>{6, 2, 0}));
}

TEST(Ladder, TopOfLadder) {
  std::vector<long> visited;
  EXPECT_EQ(Search(10, 4, 0, 100, &visited), 1000);
  EXPECT_EQ(visited, (std::vector<long>{0, 4, 8, 9}));
}

TEST(Ladder, StrideOneStopsAtFirstFailure) {
  std::vector<long> visited;
  EXPECT_EQ(Search(10, 1, 0, 3, &visited), 300);
  EXPECT_EQ(visited, (std::vector<long>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace thorbench
