// Tests for the observability layer: metrics registry, histograms,
// profiling spans / Chrome trace export, per-interval time series —
// and the invariant that enabling all of it never changes results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/model_profile.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

TEST(Metrics, CountersAndGaugesAccumulate) {
  obs::MetricsRegistry registry;
  registry.counter("a").inc();
  registry.counter("a").add(2.5);
  registry.gauge("g").set(7.0);
  registry.gauge("g").set(3.0);
  EXPECT_DOUBLE_EQ(registry.counter_value("a"), 3.5);
  EXPECT_DOUBLE_EQ(registry.gauge_value("g"), 3.0);
  // Queries never create instruments.
  EXPECT_DOUBLE_EQ(registry.counter_value("missing"), 0.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.counter_or("a"), 3.5);
  EXPECT_DOUBLE_EQ(snap.counter_or("missing", -1.0), -1.0);
}

TEST(Metrics, HistogramQuantilesMatchKnownDistribution) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("lat");
  // Uniform 1..1000: quantile q should land near 1000 * q. The log
  // bucketing guarantees ~±4.5% relative error; allow 6%.
  double sum = 0.0;
  for (int v = 1; v <= 1000; ++v) {
    h.observe(static_cast<double>(v));
    sum += v;
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 1000.0);
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.06);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * 0.06);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.06);
  // Extremes clamp to the exact tracked min/max.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
  const obs::HistogramStats stats = h.stats();
  EXPECT_EQ(stats.count, 1000u);
  EXPECT_NEAR(stats.p50, 500.0, 500.0 * 0.06);
  EXPECT_NEAR(stats.p95, 950.0, 950.0 * 0.06);
  EXPECT_NEAR(stats.p99, 990.0, 990.0 * 0.06);
}

TEST(Metrics, HistogramHandlesEmptyZeroAndWideRange) {
  obs::Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  obs::Histogram zeros;
  zeros.observe(0.0);
  zeros.observe(0.0);
  EXPECT_EQ(zeros.count(), 2u);
  EXPECT_DOUBLE_EQ(zeros.quantile(0.5), 0.0);

  obs::Histogram wide;
  wide.observe(1e-9);  // underflow bucket
  wide.observe(1e12);
  EXPECT_DOUBLE_EQ(wide.min(), 1e-9);
  EXPECT_DOUBLE_EQ(wide.max(), 1e12);
  EXPECT_DOUBLE_EQ(wide.quantile(1.0), 1e12);
}

TEST(Metrics, HistogramQuantileEqualsStatsQuantile) {
  obs::Histogram h;
  // The underflow bucket, the top bucket, and a few decades between.
  for (double v : {0.0, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e6, 1e9, 1e13,
                   1e15, 1e18})
    for (int k = 0; k < 3; ++k) h.observe(v * (1.0 + 0.1 * k));
  const obs::HistogramStats stats = h.stats();
  ASSERT_FALSE(stats.buckets.empty());
  EXPECT_EQ(stats.buckets.front().index, 0);
  EXPECT_EQ(stats.buckets.back().index, obs::Histogram::kBuckets);
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
    EXPECT_EQ(std::bit_cast<std::uint64_t>(h.quantile(q)),
              std::bit_cast<std::uint64_t>(stats.quantile(q)))
        << q;
}

// Everything stats() reports, and quantiles between its fixed ranks;
// the sums compare bit for bit.
void expect_same_histogram(const obs::Histogram& a, const obs::Histogram& b) {
  const obs::HistogramStats x = a.stats();
  const obs::HistogramStats y = b.stats();
  EXPECT_EQ(x.count, y.count);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.sum),
            std::bit_cast<std::uint64_t>(y.sum));
  EXPECT_EQ(x.min, y.min);
  EXPECT_EQ(x.max, y.max);
  EXPECT_EQ(x.p50, y.p50);
  EXPECT_EQ(x.p95, y.p95);
  EXPECT_EQ(x.p99, y.p99);
  ASSERT_EQ(x.buckets.size(), y.buckets.size());
  for (std::size_t i = 0; i < x.buckets.size(); ++i) {
    EXPECT_EQ(x.buckets[i].index, y.buckets[i].index) << i;
    EXPECT_EQ(x.buckets[i].count, y.buckets[i].count) << i;
  }
  for (double q : {0.0, 0.3, 0.75, 0.999, 1.0})
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << q;
}

TEST(Metrics, BatchedObserveEqualsPerValueObserves) {
  obs::Histogram batched, single;
  // An empty batch leaves the histogram empty, min and max at 0.
  batched.observe(std::span<const double>{});
  EXPECT_EQ(batched.count(), 0u);
  EXPECT_EQ(batched.min(), 0.0);
  EXPECT_EQ(batched.max(), 0.0);
  expect_same_histogram(batched, single);

  // The first batch lands in an empty histogram. 1e16 lies above the
  // top bucket's bound (about 1.8e13), 0 and 1e-7 in the underflow
  // bucket, and the order of summation shows in the sum's bits: after
  // 1e16 each 1.0 rounds away (1e16 + 1 ties to 1e16), while summed in
  // reverse the two add up to 2 first and survive.
  const std::vector<double> first = {1e16, 1.0, 1.0, 0.0, 1e-7};
  const std::vector<double> second = {2.5, 0.0, 4.0};
  for (const std::vector<double>& values : {first, second}) {
    batched.observe(values);
    for (double v : values) single.observe(v);
    expect_same_histogram(batched, single);
  }
  const obs::HistogramStats stats = batched.stats();
  EXPECT_EQ(stats.buckets.front().index, 0);
  EXPECT_EQ(stats.buckets.front().count, 3u);
  EXPECT_EQ(stats.buckets.back().index, obs::Histogram::kBuckets);
}

TEST(Metrics, SnapshotRendersAndExportsCsv) {
  obs::MetricsRegistry registry;
  registry.counter("runs").add(4.0);
  registry.histogram("lat.ms").observe(2.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_FALSE(snap.empty());
  const std::string text = snap.render();
  EXPECT_NE(text.find("runs"), std::string::npos);
  EXPECT_NE(text.find("lat.ms"), std::string::npos);
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter"), std::string::npos);
  EXPECT_NE(csv.find("histogram"), std::string::npos);
}

TEST(Metrics, PrefixedViewRecordsIntoItsParent) {
  obs::MetricsRegistry parent;
  parent.counter("fleet.runs").inc();
  obs::MetricsRegistry view(parent, "job3.");
  view.counter("scheduler.intervals").add(2.0);
  view.gauge("sim.committed_samples").set(7.0);
  view.histogram("optimize.ms").observe(1.5);
  // Everything recorded through the view lands in the parent, prefixed.
  EXPECT_EQ(parent.counter_value("job3.scheduler.intervals"), 2.0);
  EXPECT_EQ(parent.gauge_value("job3.sim.committed_samples"), 7.0);
  EXPECT_EQ(&view.histogram("optimize.ms"),
            &parent.histogram("job3.optimize.ms"));
  // The view reads its own names back, and no one else's.
  EXPECT_EQ(view.counter_value("scheduler.intervals"), 2.0);
  EXPECT_EQ(view.gauge_value("sim.committed_samples"), 7.0);
  EXPECT_EQ(view.counter_value("fleet.runs"), 0.0);
  // Its snapshot is the parent's, and nothing landed unprefixed.
  const obs::MetricsSnapshot snap = view.snapshot();
  EXPECT_EQ(snap.to_json(), parent.snapshot().to_json());
  EXPECT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.count("scheduler.intervals"), 0u);
  EXPECT_EQ(snap.gauges.count("sim.committed_samples"), 0u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.at("job3.optimize.ms").count, 1u);
}

TEST(ProfileSpan, NestedSpansEmitWellFormedBeginEndPairs) {
  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  {
    obs::ProfileSpan outer("outer", &registry, &tracer);
    {
      obs::ProfileSpan inner("inner", &registry, &tracer);
    }
    obs::ProfileSpan sibling("sibling", &registry, &tracer);
  }
  const auto& events = tracer.events();
  ASSERT_EQ(events.size(), 6u);
  // Every B has a matching E with LIFO nesting, timestamps
  // monotonically non-decreasing.
  std::vector<std::string> stack;
  double prev_ts = -1.0;
  for (const obs::TraceEvent& event : events) {
    EXPECT_GE(event.ts_us, prev_ts);
    prev_ts = event.ts_us;
    if (event.phase == 'B') {
      stack.push_back(event.name);
    } else {
      ASSERT_EQ(event.phase, 'E');
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), event.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty());
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  // Each span also recorded its latency histogram.
  EXPECT_EQ(registry.snapshot().histograms.at("outer.ms").count, 1u);
  EXPECT_EQ(registry.snapshot().histograms.at("inner.ms").count, 1u);
}

TEST(ProfileSpan, TraceJsonIsStructurallySound) {
  obs::TraceWriter tracer;
  {
    obs::ProfileSpan span("step \"quoted\"", nullptr, &tracer);
  }
  tracer.instant("preempt\n", "cloud");
  tracer.counter("available", 28.0);
  const std::string json = tracer.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one-line object
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST(TimeSeries, RowsAlignWithSchedulingIntervals) {
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series;
  ParcaePolicyOptions popt;
  popt.metrics = &registry;
  ParcaePolicy policy(m, popt);
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;
  sim.metrics = &registry;
  sim.timeseries = &series;
  const SimulationResult r = simulate(policy, trace, sim);

  const std::size_t intervals =
      trace.availability_series(sim.interval_s).size();
  EXPECT_EQ(series.rows(), intervals);
  EXPECT_EQ(r.timeline.size(), intervals);
  EXPECT_DOUBLE_EQ(series.at(0, "t_s"), 0.0);
  EXPECT_DOUBLE_EQ(series.at(intervals - 1, "t_s"),
                   static_cast<double>(intervals - 1) * sim.interval_s);
  for (std::size_t i = 0; i < intervals; ++i) {
    EXPECT_DOUBLE_EQ(series.at(i, "available"), r.timeline[i].available);
    EXPECT_DOUBLE_EQ(series.at(i, "cumulative_samples"),
                     r.timeline[i].cumulative_samples);
  }
  // The shared registry surfaces the liveput estimate per interval.
  EXPECT_GT(series.at(intervals - 1, "liveput_expected_samples"), 0.0);
  // CSV: header + one line per interval.
  const std::string csv = series.to_csv();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            intervals + 1);
}

TEST(TimeSeries, LateColumnsBackfillAsNan) {
  obs::TimeSeriesRecorder series;
  series.begin_row();
  series.set("a", 1.0);
  series.begin_row();
  series.set("a", 2.0);
  series.set("b", 9.0);
  EXPECT_TRUE(std::isnan(series.at(0, "b")));
  EXPECT_DOUBLE_EQ(series.at(1, "b"), 9.0);
  // NaN exports as an empty CSV cell and is skipped in JSONL.
  EXPECT_NE(series.to_csv().find("1,\n"), std::string::npos);
  EXPECT_EQ(series.to_jsonl().find("nan"), std::string::npos);
}

TEST(GoldenStability, Fig09aIsBitIdenticalWithAllSinksEnabled) {
  // The observability layer observes; it must never perturb results.
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  SimulationOptions plain;
  plain.units_per_sample = m.tokens_per_sample;
  ParcaePolicy baseline(m, {});
  const SimulationResult without = simulate(baseline, trace, plain);

  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  obs::TimeSeriesRecorder series;
  ParcaePolicyOptions popt;
  popt.metrics = &registry;
  popt.tracer = &tracer;
  ParcaePolicy instrumented(m, popt);
  SimulationOptions full = plain;
  full.metrics = &registry;
  full.tracer = &tracer;
  full.timeseries = &series;
  const SimulationResult with = simulate(instrumented, trace, full);

  // Exact double equality: bit-identical, not merely close.
  EXPECT_EQ(with.committed_units, without.committed_units);
  EXPECT_EQ(with.avg_unit_throughput, without.avg_unit_throughput);
  EXPECT_EQ(with.total_cost_usd, without.total_cost_usd);
  EXPECT_EQ(with.gpu_hours.effective, without.gpu_hours.effective);
  EXPECT_EQ(with.gpu_hours.handling, without.gpu_hours.handling);

  // And the trace actually contains the spans the docs promise.
  const std::string json = tracer.to_json();
  for (const char* name :
       {"\"name\":\"predict\"", "\"name\":\"optimize\"",
        "\"name\":\"plan-migration\"", "\"name\":\"execute-interval\""})
    EXPECT_NE(json.find(name), std::string::npos) << name;
}

}  // namespace
}  // namespace parcae
