// Tests for the cloud-provider abstraction (trace replay and live
// market backends) and its use by the SpotTrainingDriver.
#include <gtest/gtest.h>

#include <set>

#include "baselines/ondemand_policy.h"
#include "nn/dataset.h"
#include "runtime/cloud_provider.h"
#include "runtime/spot_driver.h"

namespace parcae {
namespace {

TEST(TraceCloudProvider, GrantsUpToRequestAndCapacity) {
  TraceCloudProvider cloud(flat_trace(8, 600.0), 1);
  cloud.request_instances(5);
  const auto events = cloud.advance(0.0);
  EXPECT_EQ(events.size(), 5u);  // capacity 8, requested 5
  EXPECT_EQ(cloud.held(), 5);
  for (const auto& e : events)
    EXPECT_EQ(e.kind, CloudEvent::Kind::kInstanceGranted);
  // Raising the request grants more (up to capacity).
  cloud.request_instances(12);
  EXPECT_EQ(cloud.advance(60.0).size(), 3u);
  EXPECT_EQ(cloud.held(), 8);
}

TEST(TraceCloudProvider, PreemptsWithGraceWhenCapacityShrinks) {
  const SpotTrace trace =
      SpotTrace::from_minute_series("shrink", {6, 6, 4, 4, 5}, 8);
  TraceCloudProvider cloud(trace, 2, /*grace_s=*/30.0);
  cloud.request_instances(6);
  cloud.advance(0.0);
  EXPECT_EQ(cloud.held(), 6);
  const auto events = cloud.advance(150.0);  // past the drop at 120 s
  int notices = 0;
  for (const auto& e : events)
    if (e.kind == CloudEvent::Kind::kPreemptionNotice) {
      ++notices;
      EXPECT_DOUBLE_EQ(e.grace_s, 30.0);
      EXPECT_DOUBLE_EQ(e.time_s, 120.0);
    }
  EXPECT_EQ(notices, 2);
  EXPECT_EQ(cloud.held(), 4);
  // Regrowth at 240 s grants one more.
  const auto regrow = cloud.advance(300.0);
  EXPECT_EQ(regrow.size(), 1u);
  EXPECT_EQ(cloud.held(), 5);
}

TEST(TraceCloudProvider, InstanceIdsAreUniqueAcrossLifetimes) {
  const SpotTrace trace =
      SpotTrace::from_minute_series("churn", {4, 2, 4, 2, 4}, 8);
  TraceCloudProvider cloud(trace, 3);
  cloud.request_instances(4);
  std::set<int> granted;
  for (double t = 0.0; t <= 300.0; t += 60.0) {
    for (const auto& e : cloud.advance(t)) {
      if (e.kind == CloudEvent::Kind::kInstanceGranted) {
        EXPECT_TRUE(granted.insert(e.instance_id).second)
            << "id reused: " << e.instance_id;
      }
    }
  }
  EXPECT_GE(granted.size(), 8u);  // 4 initial + regrants
}

TEST(MarketCloudProvider, GrantsWhilePriceBelowBid) {
  SpotMarketOptions options;
  options.bid = 100.0;  // never preempt
  options.grant_rate = 4.0;
  options.capacity = 10;
  MarketCloudProvider cloud(options, 4);
  cloud.request_instances(10);
  cloud.advance(15 * 60.0);
  EXPECT_EQ(cloud.held(), 10);
  EXPECT_GT(cloud.spot_price_per_hour(5 * 60.0), 0.0);
}

TEST(MarketCloudProvider, LowBidCausesNotices) {
  SpotMarketOptions options;
  options.bid = options.mean_price * 0.98;  // very tight bid
  options.volatility = 0.08;
  MarketCloudProvider cloud(options, 5);
  cloud.request_instances(options.capacity);
  int notices = 0;
  for (const auto& e : cloud.advance(60 * 60.0))
    notices += e.kind == CloudEvent::Kind::kPreemptionNotice ? 1 : 0;
  EXPECT_GT(notices, 0);
}

TEST(SpotTrainingDriver, RunsAgainstLiveMarketProvider) {
  const auto ds = nn::make_blobs(192, 12, 4, 0.5, 91);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;

  SpotMarketOptions market;
  market.capacity = 6;
  market.grant_rate = 3.0;
  MarketCloudProvider cloud(market, 6);

  SpotDriverOptions options;
  options.requested_instances = 6;
  SpotTrainingDriver driver(cluster, &ds, options);
  const SpotDriverReport report = driver.run(cloud, 30 * 60.0);
  EXPECT_EQ(report.intervals, 30);
  EXPECT_GT(report.iterations, 0);
  EXPECT_TRUE(report.replicas_always_consistent);
}

}  // namespace
}  // namespace parcae
