// Tests for TraceCloudProvider, the spot driver's replay of a trace as
// grants and preemption notices.
#include <gtest/gtest.h>

#include <set>

#include "baselines/ondemand_policy.h"
#include "runtime/cloud_provider.h"

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

}  // namespace
}  // namespace parcae
