// Tests for the spot-market generator and the end-to-end
// SpotTrainingDriver (Algorithm 1 against the real training cluster).
#include <gtest/gtest.h>

#include "nn/dataset.h"
#include "runtime/spot_driver.h"
#include "trace/spot_market.h"

namespace parcae {
namespace {

// ---------------------------------------------------------------------------
// Spot market.

TEST(SpotMarket, PricesStayPositiveAndMeanRevert) {
  Rng rng(5);
  SpotMarketOptions options;
  options.duration_s = 6 * 3600.0;
  const SpotMarketResult r = simulate_spot_market(options, rng);
  ASSERT_EQ(r.price_per_interval.size(), 360u);
  double sum = 0.0;
  for (double p : r.price_per_interval) {
    EXPECT_GT(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum / 360.0, kSpotMarketMeanPrice, kSpotMarketMeanPrice * 0.25);
}

TEST(SpotMarket, HigherBidMeansFewerPreemptions) {
  SpotMarketOptions low, high;
  low.bid = 0.95;
  high.bid = 1.6;
  low.duration_s = high.duration_s = 6 * 3600.0;
  // Average several seeds: single runs are noisy.
  double low_events = 0.0, high_events = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng_low(seed), rng_high(seed);
    low_events += simulate_spot_market(low, rng_low)
                      .trace.stats()
                      .preemption_events;
    high_events += simulate_spot_market(high, rng_high)
                       .trace.stats()
                       .preemption_events;
  }
  EXPECT_GT(low_events, high_events);
}

TEST(SpotMarket, TraceRespectsCapacity) {
  Rng rng(9);
  SpotMarketOptions options;
  options.capacity = 12;
  const SpotMarketResult r = simulate_spot_market(options, rng);
  EXPECT_LE(r.trace.stats().max_instances, 12);
  EXPECT_GE(r.trace.stats().min_instances, 0);
}

TEST(SpotMarket, PaidPriceIsWithinProcessRange) {
  Rng rng(77);
  SpotMarketOptions options;
  const SpotMarketResult r = simulate_spot_market(options, rng);
  if (r.mean_paid_price > 0.0) {
    // While holding instances the price was at most ~the bid.
    EXPECT_LT(r.mean_paid_price, options.bid * 1.1);
  }
}

// ---------------------------------------------------------------------------
// End-to-end driver.

TEST(SpotTrainingDriver, FullLoopTrainsThroughChurn) {
  const auto ds = nn::make_blobs(384, 16, 5, 0.5, 4242);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {16, 48, 32, 5};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 48;
  cluster.initial_instances = 0;  // the trace allocates
  cluster.seed = 3;

  // A churny little trace on an 8-instance cluster.
  Rng rng(12);
  SyntheticTraceOptions trace_options;
  trace_options.capacity = 8;
  trace_options.target_availability = 6.0;
  trace_options.preemption_events = 10;
  trace_options.duration_s = 40 * 60.0;
  const SpotTrace trace = synthesize_trace(trace_options, rng);

  SpotDriverOptions driver_options;
  driver_options.iterations_per_interval = 6;
  SpotTrainingDriver driver(cluster, &ds, driver_options);
  const SpotDriverReport report = driver.run(trace);

  EXPECT_EQ(report.intervals, 40);
  EXPECT_GT(report.iterations, 100);
  EXPECT_GE(report.epochs_completed, 1u);
  EXPECT_TRUE(report.replicas_always_consistent);
  EXPECT_LT(report.final_loss, 0.8f);
  // At least the initial pipeline setup happened.
  EXPECT_GE(report.migrations(MigrationKind::kPipeline) +
                report.migrations(MigrationKind::kRollback),
            1);
}

TEST(SpotTrainingDriver, CoreTakesTheOptionsAndClampsSetDepthBounds) {
  const auto ds = nn::make_blobs(64, 8, 3, 0.5, 7);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {8, 24, 16, 3};  // three layers to split
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;

  // The live loop's defaults reach the core; unset depth bounds are
  // derived from the cluster.
  SpotTrainingDriver defaults(cluster, &ds, {});
  const SchedulerCoreOptions& d = defaults.scheduler().options();
  EXPECT_EQ(d.lookahead, 8);
  EXPECT_EQ(d.mc_trials, 128);
  EXPECT_EQ(d.max_instances, 64);
  EXPECT_EQ(d.seed, 11u);
  EXPECT_EQ(d.min_depth_override, 1);
  EXPECT_EQ(d.max_depth_override, 3);

  // Set knobs are the caller's; a set depth bound is clamped into what
  // the cluster's layers allow, not replaced.
  SpotDriverOptions options;
  options.history = 6;
  options.cost_noise_stddev = 0.1;
  options.min_depth_override = 2;
  options.max_depth_override = 99;
  SpotTrainingDriver driver(cluster, &ds, options);
  const SchedulerCoreOptions& c = driver.scheduler().options();
  EXPECT_EQ(c.history, 6);
  EXPECT_EQ(c.cost_noise_stddev, 0.1);
  EXPECT_EQ(c.min_depth_override, 2);
  EXPECT_EQ(c.max_depth_override, 3);
}

TEST(SpotTrainingDriver, SurvivesTotalOutage) {
  const auto ds = nn::make_blobs(128, 8, 3, 0.5, 7);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {8, 24, 3};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  // Availability collapses to zero mid-trace, then recovers.
  const SpotTrace trace = SpotTrace::from_minute_series(
      "outage", {4, 4, 4, 0, 0, 0, 4, 4, 4, 4}, 8);
  SpotTrainingDriver driver(cluster, &ds, {});
  const SpotDriverReport report = driver.run(trace);
  EXPECT_GE(report.migrations(MigrationKind::kSuspend), 1);
  // Training resumed from ParcaePS after the outage.
  EXPECT_GT(report.iterations, 10);
  EXPECT_TRUE(report.replicas_always_consistent);
}

TEST(SpotTrainingDriver, MarketTraceEndToEnd) {
  // The two generators compose: market-generated availability drives
  // real training.
  const auto ds = nn::make_blobs(256, 12, 4, 0.5, 55);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;

  Rng rng(31);
  SpotMarketOptions market;
  market.capacity = 6;
  market.grant_rate = 2.0;
  market.duration_s = 30 * 60.0;
  const SpotMarketResult m = simulate_spot_market(market, rng);

  SpotTrainingDriver driver(cluster, &ds, {});
  const SpotDriverReport report = driver.run(m.trace);
  EXPECT_EQ(report.intervals, 30);
  EXPECT_GT(report.iterations, 0);
  EXPECT_TRUE(report.replicas_always_consistent);
}

}  // namespace
}  // namespace parcae
