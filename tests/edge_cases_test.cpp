// Edge cases across the simulator and policies: outages, degenerate
// traces, odd options — the situations §8 calls "exceptional".
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/bamboo_policy.h"
#include "baselines/ondemand_policy.h"
#include "baselines/varuna_policy.h"
#include "model/model_profile.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

TEST(EdgeCases, EmptyTraceYieldsEmptyResult) {
  ParcaePolicy policy(gpt2_profile(), {});
  const SpotTrace empty("empty", 5, 8, 0.0, {});
  const SimulationResult r = simulate(policy, empty, {});
  EXPECT_DOUBLE_EQ(r.committed_samples, 0.0);
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_DOUBLE_EQ(r.spot_cost_usd, 0.0);
}

TEST(EdgeCases, TimelineRecordingCanBeDisabled) {
  ParcaePolicy policy(gpt2_profile(), {});
  SimulationOptions sim;
  sim.record_timeline = false;
  const SimulationResult r =
      simulate(policy, canonical_segment(TraceSegment::kHighAvailSparse),
               sim);
  EXPECT_TRUE(r.timeline.empty());
  EXPECT_GT(r.committed_samples, 0.0);
}

TEST(EdgeCases, FullOutageSuspendsThenResumes) {
  // Availability collapses to zero mid-trace (§8: "the training
  // process has to be suspended until new spot instances are
  // available") and comes back.
  std::vector<int> series(30, 20);
  for (int i = 10; i < 16; ++i) series[static_cast<std::size_t>(i)] = 0;
  const SpotTrace trace = SpotTrace::from_minute_series("outage", series);
  ParcaePolicy policy(gpt2_profile(), {});
  const SimulationResult r = simulate(policy, trace, {});
  // No progress (or committed count frozen) during the outage.
  for (int i = 11; i < 16; ++i) {
    EXPECT_FALSE(r.timeline[static_cast<std::size_t>(i)].config.valid());
    EXPECT_DOUBLE_EQ(r.timeline[static_cast<std::size_t>(i)].throughput,
                     0.0);
  }
  // Training resumed and kept committing afterwards.
  EXPECT_GT(r.timeline.back().cumulative_samples,
            r.timeline[15].cumulative_samples * 1.2);
  // Cumulative progress never decreases (ParcaePS-backed resume).
  double prev = 0.0;
  for (const auto& rec : r.timeline) {
    EXPECT_GE(rec.cumulative_samples, prev - 1e-9);
    prev = rec.cumulative_samples;
  }
}

TEST(EdgeCases, VarunaStartingFromZeroInstances) {
  std::vector<int> series(20, 0);
  for (int i = 8; i < 20; ++i) series[static_cast<std::size_t>(i)] = 16;
  const SpotTrace trace = SpotTrace::from_minute_series("coldstart", series);
  VarunaPolicy policy(gpt2_profile());
  const SimulationResult r = simulate(policy, trace, {});
  EXPECT_GT(r.committed_samples, 0.0);
  EXPECT_FALSE(r.timeline[3].config.valid());
  EXPECT_TRUE(r.timeline.back().config.valid());
}

TEST(EdgeCases, BambooWithInfeasibleCustomDepthNeverRuns) {
  // Outside Table 5 Bamboo falls back to depth 8, which cannot hold
  // GPT-3's doubled model states.
  ModelProfile custom = gpt3_profile();
  custom.name = "GPT-3-custom";
  BambooPolicy policy(custom);
  ASSERT_EQ(policy.depth(), 8);
  const SimulationResult r = simulate(policy, flat_trace(32, 600.0), {});
  EXPECT_DOUBLE_EQ(r.committed_samples, 0.0);
  EXPECT_FALSE(r.timeline.back().config.valid());
}

TEST(EdgeCases, CostPerUnitIsInfiniteWithoutProgress) {
  ParcaePolicy policy(gpt3_profile(), {});
  SimulationOptions sim;
  sim.units_per_sample = 2048.0;
  const SimulationResult r = simulate(policy, flat_trace(4, 600.0), sim);
  EXPECT_DOUBLE_EQ(r.committed_units, 0.0);
  EXPECT_TRUE(std::isinf(r.cost_per_unit));
}

TEST(EdgeCases, ZeroLookaheadFallsBackToThroughputTarget) {
  ParcaePolicyOptions options;
  options.lookahead = 0;
  ParcaePolicy policy(gpt2_profile(), options);
  const SimulationResult r =
      simulate(policy, canonical_segment(TraceSegment::kHighAvailSparse),
               {});
  EXPECT_GT(r.committed_samples, 0.0);
}

TEST(EdgeCases, SingleInstanceClusterTrainsSmallModels) {
  ParcaePolicy policy(resnet152_profile(), {});
  const SimulationResult r = simulate(policy, flat_trace(1, 1200.0), {});
  EXPECT_GT(r.committed_samples, 0.0);
  EXPECT_EQ(r.timeline.back().config, (ParallelConfig{1, 1}));
}

TEST(EdgeCases, MultiGpuLedgerCountsAllGpus) {
  ParcaePolicy policy(as_multi_gpu_node(bert_large_profile(), 4), {});
  SimulationOptions sim;
  sim.gpus_per_instance = 4;
  const SpotTrace nodes = flat_trace(6, 1800.0);  // 6 nodes = 24 GPUs
  const SimulationResult r = simulate(policy, nodes, sim);
  EXPECT_NEAR(r.gpu_hours.total(), 24.0 * 0.5, 0.01);
  EXPECT_NEAR(r.spot_cost_usd,
              24.0 * 0.5 * sim.pricing.spot_gpu_usd_per_hour, 0.01);
}

TEST(EdgeCases, PolicyHandlesCapacityAboveThirtyTwoGracefully) {
  // The predictor clamps to 32, but larger clusters must still run
  // (the clamp only caps forecasts, not actual availability).
  ParcaePolicy policy(bert_large_profile(), {});
  const SimulationResult r = simulate(policy, flat_trace(40, 600.0), {});
  EXPECT_GT(r.committed_samples, 0.0);
}

}  // namespace
}  // namespace parcae
