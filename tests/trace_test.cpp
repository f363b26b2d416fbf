// Tests for the spot-trace library: exact Table-1 statistics of the
// canonical segments, timeline queries, slicing/concatenation, the
// synthetic generators, and the multi-GPU trace derivation (§10.2).
#include <gtest/gtest.h>

#include <algorithm>

#include "trace/spot_trace.h"

namespace parcae {
namespace {

TEST(SpotTrace, InstancesAtFollowsEvents) {
  SpotTrace t("t", 10, 32, 600.0, {{100.0, -2}, {300.0, +5}});
  EXPECT_EQ(t.instances_at(0.0), 10);
  EXPECT_EQ(t.instances_at(99.9), 10);
  EXPECT_EQ(t.instances_at(100.0), 8);
  EXPECT_EQ(t.instances_at(299.0), 8);
  EXPECT_EQ(t.instances_at(300.0), 13);
  EXPECT_EQ(t.instances_at(599.0), 13);
}

TEST(SpotTrace, EventsAreSortedAndClamped) {
  // Unsorted input events; one would push below zero, one above cap.
  SpotTrace t("t", 2, 4, 100.0, {{50.0, +10}, {10.0, -5}});
  EXPECT_EQ(t.instances_at(10.0), 0);   // clamped at zero
  EXPECT_EQ(t.instances_at(50.0), 4);   // clamped at capacity
  ASSERT_EQ(t.events().size(), 2u);
  EXPECT_LT(t.events()[0].time_s, t.events()[1].time_s);
}

TEST(SpotTrace, FromMinuteSeriesRoundTrips) {
  const std::vector<int> series{5, 5, 7, 7, 3, 3, 3, 4};
  const SpotTrace t = SpotTrace::from_minute_series("s", series);
  EXPECT_EQ(t.availability_series(60.0), series);
  EXPECT_EQ(t.initial_instances(), 5);
  EXPECT_DOUBLE_EQ(t.duration_s(), 480.0);

  // Resampling at half the interval repeats each sample (a fleet lease
  // read at a finer interval).
  const SpotTrace lease =
      SpotTrace::from_minute_series("lease:job0", {1, 2, 3}, 8, 60.0);
  EXPECT_EQ(lease.capacity(), 8);
  EXPECT_DOUBLE_EQ(lease.duration_s(), 180.0);
  EXPECT_EQ(lease.availability_series(60.0), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(lease.availability_series(30.0),
            (std::vector<int>{1, 1, 2, 2, 3, 3}));

  // A series that ends at 0 keeps its last interval.
  const std::vector<int> drained{4, 2, 0};
  const SpotTrace d = SpotTrace::from_minute_series("drained", drained, 8);
  EXPECT_EQ(d.availability_series(60.0), drained);
  EXPECT_DOUBLE_EQ(d.duration_s(), 180.0);
  EXPECT_EQ(d.instances_at(179.0), 0);
}

TEST(SpotTrace, StatsCountsInstancesAndEvents) {
  const SpotTrace t = SpotTrace::from_minute_series("s", {6, 4, 4, 7, 7, 6});
  const TraceStats s = t.stats();
  EXPECT_EQ(s.preempted_instances, 3);  // -2 then -1
  EXPECT_EQ(s.allocated_instances, 3);  // +3
  EXPECT_EQ(s.preemption_events, 2);
  EXPECT_EQ(s.allocation_events, 1);
  EXPECT_EQ(s.min_instances, 4);
  EXPECT_EQ(s.max_instances, 7);
  EXPECT_NEAR(s.avg_instances, (6 + 4 + 4 + 7 + 7 + 6) / 6.0, 1e-12);
}

struct SegmentExpectation {
  TraceSegment segment;
  const char* name;
  double avg;
  int preemption_events;
  int allocation_events;
};

class CanonicalSegmentTest
    : public ::testing::TestWithParam<SegmentExpectation> {};

// Table 1 of the paper, matched exactly.
INSTANTIATE_TEST_SUITE_P(
    Table1, CanonicalSegmentTest,
    ::testing::Values(
        SegmentExpectation{TraceSegment::kHighAvailDense, "HA-DP", 27.05, 9,
                           8},
        SegmentExpectation{TraceSegment::kHighAvailSparse, "HA-SP", 29.63, 6,
                           5},
        SegmentExpectation{TraceSegment::kLowAvailDense, "LA-DP", 16.82, 8,
                           12},
        SegmentExpectation{TraceSegment::kLowAvailSparse, "LA-SP", 14.60, 3,
                           0}),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST_P(CanonicalSegmentTest, MatchesTable1) {
  const auto& expect = GetParam();
  const SpotTrace t = canonical_segment(expect.segment);
  const TraceStats s = t.stats();
  EXPECT_EQ(t.name(), expect.name);
  EXPECT_NEAR(s.avg_instances, expect.avg, 0.005);  // Table 1 precision
  EXPECT_EQ(s.preemption_events, expect.preemption_events);
  EXPECT_EQ(s.allocation_events, expect.allocation_events);
  EXPECT_DOUBLE_EQ(s.duration_s, 3600.0);
  EXPECT_LE(s.max_instances, 32);
  EXPECT_GE(s.min_instances, 0);
}

TEST_P(CanonicalSegmentTest, HourLongMinuteSeries) {
  const SpotTrace t = canonical_segment(GetParam().segment);
  EXPECT_EQ(t.availability_series(60.0).size(), 60u);
}

TEST(SpotTrace, SliceRebasesAndPreservesLevels) {
  const SpotTrace t = SpotTrace::from_minute_series("s", {6, 4, 4, 7, 7, 6});
  const SpotTrace mid = t.slice(120.0, 300.0);
  EXPECT_EQ(mid.initial_instances(), 4);
  EXPECT_DOUBLE_EQ(mid.duration_s(), 180.0);
  EXPECT_EQ(mid.instances_at(70.0), 7);  // was minute 3 in the parent
}

TEST(SpotTrace, ConcatInsertsSeamEvent) {
  const SpotTrace a = SpotTrace::from_minute_series("a", {6, 6, 5});
  const SpotTrace b = SpotTrace::from_minute_series("b", {8, 8});
  const SpotTrace ab = a.concat(b);
  EXPECT_DOUBLE_EQ(ab.duration_s(), 300.0);
  EXPECT_EQ(ab.instances_at(179.0), 5);
  EXPECT_EQ(ab.instances_at(180.0), 8);
  const std::vector<int> expect{6, 6, 5, 8, 8};
  EXPECT_EQ(ab.availability_series(60.0), expect);
}

TEST(SpotTrace, FullDayTraceShape) {
  const SpotTrace t = full_day_trace();
  EXPECT_DOUBLE_EQ(t.duration_s(), 12.0 * 3600.0);
  const TraceStats s = t.stats();
  EXPECT_GE(s.min_instances, 0);
  EXPECT_LE(s.max_instances, 32);
  // The high-availability segments sit early, the low ones late.
  const double early = t.slice(0.0, 4 * 3600.0).stats().avg_instances;
  const double late = t.slice(7 * 3600.0, 11 * 3600.0).stats().avg_instances;
  EXPECT_GT(early, late);
}

TEST(SpotTrace, FullDayTraceDeterministicPerSeed) {
  const SpotTrace a = full_day_trace(5);
  const SpotTrace b = full_day_trace(5);
  const SpotTrace c = full_day_trace(6);
  EXPECT_EQ(a.availability_series(), b.availability_series());
  EXPECT_NE(a.availability_series(), c.availability_series());
}

class SyntheticIntensityTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(EventCounts, SyntheticIntensityTest,
                         ::testing::Values(3, 6, 12, 20, 30));

TEST_P(SyntheticIntensityTest, HitsRequestedPreemptionCount) {
  Rng rng(99);
  SyntheticTraceOptions options;
  options.preemption_events = GetParam();
  options.target_availability = 30.0;
  const SpotTrace t = synthesize_trace(options, rng);
  const TraceStats s = t.stats();
  // Every requested event lands (some may merge at the same boundary,
  // so compare preempted instances against the event count).
  EXPECT_GE(s.preempted_instances, GetParam());
  EXPECT_GT(s.avg_instances, options.target_availability * 0.8);
  EXPECT_GE(s.min_instances, 1);
}

TEST(SyntheticTrace, RebalancingKeepsAvailabilityStable) {
  Rng rng(7);
  SyntheticTraceOptions options;
  options.preemption_events = 30;
  options.target_availability = 30.0;
  const SpotTrace t = synthesize_trace(options, rng);
  EXPECT_NEAR(t.stats().avg_instances, 30.0, 2.5);
}

TEST(MultiGpuTrace, AggregatesEventsInChunks) {
  // 8 single-GPU preemptions -> 2 four-GPU preemptions; 4 allocations
  // -> 1 four-GPU allocation at the *first* allocation time.
  std::vector<TraceEvent> events;
  for (int i = 0; i < 8; ++i)
    events.push_back({100.0 + 10.0 * i, -1});
  for (int i = 0; i < 4; ++i)
    events.push_back({500.0 + 10.0 * i, +1});
  const SpotTrace single("s", 32, 32, 1000.0, events);
  const SpotTrace multi = derive_multi_gpu_trace(single, 4);
  EXPECT_EQ(multi.initial_instances(), 8);
  const TraceStats s = multi.stats();
  EXPECT_EQ(s.preemption_events, 2);
  EXPECT_EQ(s.allocation_events, 1);
  // Allocation at the first of its four constituent events.
  bool found_alloc_at_500 = false;
  for (const auto& e : multi.events())
    if (e.delta > 0 && e.time_s == 500.0) found_alloc_at_500 = true;
  EXPECT_TRUE(found_alloc_at_500);
}

TEST(MultiGpuTrace, FavorsMultiGpuGpuHours) {
  // The derivation keeps partial groups alive, so total GPU-hours of
  // the 4-GPU trace are >= the single-GPU trace (as the paper notes
  // its generation "favors multi-GPU instances").
  const SpotTrace single = canonical_segment(TraceSegment::kHighAvailDense);
  const SpotTrace multi = derive_multi_gpu_trace(single, 4);
  const double single_gpu_h = single.stats().avg_instances;
  const double multi_gpu_h = multi.stats().avg_instances * 4.0;
  EXPECT_GE(multi_gpu_h + 1e-9, single_gpu_h);
}

TEST(MultiGpuTrace, IdentityForChunkOne) {
  const SpotTrace single = canonical_segment(TraceSegment::kLowAvailDense);
  const SpotTrace same = derive_multi_gpu_trace(single, 1);
  EXPECT_EQ(same.availability_series(), single.availability_series());
}

}  // namespace
}  // namespace parcae
