// Focused tests for liveput-optimizer code paths not covered by the
// broader suites: suspension transitions inside the DP, determinism,
// plan prefixes, and cost-model interactions.
#include <gtest/gtest.h>

#include "core/interval_dp.h"
#include "core/objective.h"
#include "model/model_profile.h"

namespace parcae {
namespace {

ThroughputModel gpt3_model() {
  return ThroughputModel(gpt3_profile(), {});
}

// The §7 DP over the training objective; `objective` must outlive it.
IntervalDp make_optimizer(const LiveputObjective& objective,
                          const ThroughputModel& tm) {
  return IntervalDp(&objective, CostEstimator(tm.model()),
                    IntervalDpOptions{
                        .interval_s = 60.0, .mc_trials = 128, .seed = 17});
}

TEST(OptimizerPaths, PlansThroughACapacityGap) {
  // GPT-3 needs 9 instances; the forecast dips below that and
  // recovers. The only feasible plan suspends in the gap and resumes,
  // and the DP must find it rather than dead-ending.
  const auto tm = gpt3_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const std::vector<int> predicted{12, 6, 6, 12, 12, 12};
  const IntervalPlan plan = opt.optimize({1, 12}, 12, predicted);
  ASSERT_EQ(plan.configs.size(), 6u);
  EXPECT_FALSE(plan.configs[1].valid());  // suspended
  EXPECT_FALSE(plan.configs[2].valid());
  EXPECT_TRUE(plan.configs[0].valid());
  EXPECT_TRUE(plan.configs[3].valid());   // resumed
  EXPECT_GT(plan.expected_value, 0.0);
}

TEST(OptimizerPaths, AllInfeasibleMeansFullySuspendedPlan) {
  const auto tm = gpt3_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const std::vector<int> predicted{4, 5, 6};
  const IntervalPlan plan = opt.optimize(kIdleConfig, 4, predicted);
  for (const auto& c : plan.configs) EXPECT_FALSE(c.valid());
  EXPECT_DOUBLE_EQ(plan.expected_value, 0.0);
}

TEST(OptimizerPaths, DeterministicAcrossIdenticalCalls) {
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto a = make_optimizer(objective, tm);
  auto b = make_optimizer(objective, tm);
  const std::vector<int> predicted{26, 24, 27, 25, 26, 28};
  const IntervalPlan pa = a.optimize({3, 9}, 27, predicted);
  const IntervalPlan pb = b.optimize({3, 9}, 27, predicted);
  EXPECT_EQ(pa.configs, pb.configs);
  EXPECT_DOUBLE_EQ(pa.expected_value, pb.expected_value);
  // Re-running on the same instance hits the sampler cache and must
  // not drift.
  const IntervalPlan pc = a.optimize({3, 9}, 27, predicted);
  EXPECT_EQ(pa.configs, pc.configs);
}

TEST(OptimizerPaths, ResumingCostsMoreThanStayingSuspended) {
  const auto tm = gpt3_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  // Starting suspended, the first valid config pays the PS restore.
  const double resume = opt.expected_migration_cost(kIdleConfig, 12,
                                                    {1, 12}, 0);
  const double stay = opt.expected_migration_cost(kIdleConfig, 12,
                                                  kIdleConfig, 0);
  EXPECT_GT(resume, 10.0);
  EXPECT_DOUBLE_EQ(stay, 0.0);
}

TEST(OptimizerPaths, GrowingPipelinesUsesInterStageCost) {
  // Adding data-parallel pipelines at the same depth moves states to
  // the new instances: cheaper than a re-partition, pricier than
  // routing.
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  CostEstimator est(gpt2_profile());
  const double grow = opt.expected_migration_cost({2, 8}, 16, {3, 8}, 0);
  EXPECT_GT(grow, est.intra_stage({3, 8}).total() - 1e-9);
  EXPECT_LT(grow, est.pipeline_migration({2, 8}, {3, 8}).total());
}

TEST(OptimizerPaths, ShrinkingPipelinesIsRoutingOnly) {
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  CostEstimator est(gpt2_profile());
  const double shrink = opt.expected_migration_cost({3, 8}, 24, {2, 8}, 0);
  EXPECT_NEAR(shrink, est.intra_stage({2, 8}).total(), 1e-9);
}

TEST(OptimizerPaths, LongerHorizonNeverReducesExpectedSamples) {
  // More look-ahead can only add committed-sample mass to the plan
  // (the DP maximizes a sum of non-negative per-interval terms).
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  std::vector<int> predicted;
  double prev = 0.0;
  for (int i = 0; i < 8; ++i) {
    predicted.push_back(24 + (i % 3));
    const IntervalPlan plan = opt.optimize({3, 8}, 24, predicted);
    EXPECT_GE(plan.expected_value, prev - 1e-6);
    prev = plan.expected_value;
  }
}

TEST(OptimizerPaths, PredictedCrashPrefersRobustConfigurations) {
  // If the forecast says half the fleet disappears next interval, the
  // chosen plan for that interval must fit the reduced fleet, and the
  // current interval should avoid configs that would strand work.
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const std::vector<int> predicted{12, 12, 12, 12};
  const IntervalPlan plan = opt.optimize(tm.best_config(24), 24, predicted);
  for (const auto& c : plan.configs) {
    if (c.valid()) {
      EXPECT_LE(c.instances(), 12);
    }
  }
}

TEST(OptimizerPaths, MismatchedCurrentConfigStillPlans) {
  // The caller may pass a current config larger than n_now (damage
  // not yet adapted); the optimizer must still return a feasible plan.
  const auto tm = ThroughputModel(gpt2_profile(), {});
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const IntervalPlan plan = opt.optimize({4, 8}, 20, {20, 20});
  for (const auto& c : plan.configs) {
    if (c.valid()) {
      EXPECT_LE(c.instances(), 20);
    }
  }
  EXPECT_GT(plan.expected_value, 0.0);
}

}  // namespace
}  // namespace parcae
