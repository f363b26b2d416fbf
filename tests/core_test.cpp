// Tests for liveput (Definition 1) and the liveput DP optimizer (§7),
// including a brute-force optimality check of the dynamic program and
// the paper's Figure-3 qualitative claim: shorter pipelines trade
// throughput for robustness.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "core/liveput.h"
#include "core/interval_dp.h"
#include "core/objective.h"
#include "model/model_profile.h"

namespace parcae {
namespace {

ThroughputModel gpt2_model() {
  return ThroughputModel(gpt2_profile());
}

// The §7 DP over the training objective; `objective` must outlive it.
IntervalDp make_optimizer(const LiveputObjective& objective,
                          const ThroughputModel& tm, int trials = 128) {
  return IntervalDp(&objective, CostEstimator(tm.model()),
                    IntervalDpOptions{
                        .interval_s = 60.0, .mc_trials = trials, .seed = 17});
}

TEST(Liveput, EqualsThroughputWithoutPreemptions) {
  const auto tm = gpt2_model();
  PreemptionSampler sampler(1, 128);
  const LiveputEstimator est(&tm, &sampler);
  for (const ParallelConfig c : {ParallelConfig{2, 8}, ParallelConfig{4, 6}}) {
    EXPECT_DOUBLE_EQ(est.liveput(c, 2, 0), tm.throughput(c));
    EXPECT_DOUBLE_EQ(est.liveput_with_inter_stage(c, 2, 0),
                     tm.throughput(c));
  }
}

TEST(Liveput, DecreasesWithPreemptionCount) {
  const auto tm = gpt2_model();
  PreemptionSampler sampler(2, 512);
  const LiveputEstimator est(&tm, &sampler);
  const ParallelConfig c{4, 6};
  double prev = std::numeric_limits<double>::infinity();
  for (int k = 0; k <= 6; ++k) {
    const double lp = est.liveput(c, 0, k);
    EXPECT_LE(lp, prev + 1e-9);
    prev = lp;
  }
}

TEST(Liveput, InterStageRecoveryDominatesIntraOnly) {
  const auto tm = gpt2_model();
  PreemptionSampler sampler(3, 512);
  const LiveputEstimator est(&tm, &sampler);
  const ParallelConfig c{4, 6};
  for (int k = 1; k <= 6; ++k)
    EXPECT_GE(est.liveput_with_inter_stage(c, 0, k) + 1e-9,
              est.liveput(c, 0, k));
}

TEST(Liveput, Figure3ShorterPipelinesMoreRobust) {
  // Figure 3's trade-off on 24 instances: {2,12} has higher raw
  // throughput than {4,6} in this model, but under several
  // preemptions the shorter pipeline retains more expected
  // throughput relative to its own baseline.
  const auto tm = gpt2_model();
  PreemptionSampler sampler(4, 2048);
  const LiveputEstimator est(&tm, &sampler);
  const ParallelConfig deep{2, 12};
  const ParallelConfig shallow{4, 6};
  const int k = 4;
  const double deep_retention =
      est.liveput(deep, 0, k) / tm.throughput(deep);
  const double shallow_retention =
      est.liveput(shallow, 0, k) / tm.throughput(shallow);
  EXPECT_GT(shallow_retention, deep_retention);
}

TEST(LiveputOptimizer, MigrationCostZeroForStableConfig) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  EXPECT_DOUBLE_EQ(opt.expected_migration_cost({4, 6}, 26, {4, 6}, 0), 0.0);
}

TEST(LiveputOptimizer, DepthChangeChargesPipelineMigration) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  CostEstimator est(gpt2_profile());
  const double cost = opt.expected_migration_cost({2, 13}, 26, {4, 6}, 0);
  EXPECT_NEAR(cost, est.pipeline_migration({2, 13}, {4, 6}).total(), 1e-9);
}

TEST(LiveputOptimizer, PreemptionsRaiseExpectedCost) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm, 512);
  const double calm = opt.expected_migration_cost({4, 6}, 26, {4, 6}, 0);
  const double rough = opt.expected_migration_cost({4, 6}, 26, {4, 6}, 3);
  EXPECT_GT(rough, calm);
}

TEST(LiveputOptimizer, ResumeFromSuspensionCostsRollback) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const double cost =
      opt.expected_migration_cost(kIdleConfig, 10, {2, 5}, 0);
  EXPECT_GT(cost, 5.0);
}

TEST(LiveputOptimizer, PlanCoversAllIntervalsAndRespectsResources) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const std::vector<int> predicted{26, 24, 24, 20, 20, 22};
  const IntervalPlan plan = opt.optimize({3, 9}, 27, predicted);
  ASSERT_EQ(plan.configs.size(), predicted.size());
  for (std::size_t i = 0; i < plan.configs.size(); ++i) {
    if (plan.configs[i].valid()) {
      EXPECT_LE(plan.configs[i].instances(), predicted[i]) << "interval " << i;
    }
  }
  EXPECT_GT(plan.expected_value, 0.0);
}

TEST(LiveputOptimizer, EmptyPredictionGivesEmptyPlan) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const IntervalPlan plan = opt.optimize({2, 8}, 20, {});
  EXPECT_TRUE(plan.configs.empty());
  EXPECT_EQ(plan.next(), kIdleConfig);
}

TEST(LiveputOptimizer, StableForecastKeepsThroughputOptimalConfig) {
  // With a flat forecast and no preemptions, the best plan is to sit
  // at the throughput-optimal configuration for that instance count.
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const ParallelConfig best = tm.best_config(24);
  const std::vector<int> flat(8, 24);
  const IntervalPlan plan = opt.optimize(best, 24, flat);
  for (const auto& c : plan.configs) EXPECT_EQ(c, best);
}

TEST(LiveputOptimizer, AvoidsDepthFlappingUnderChurn) {
  // Alternating 26 <-> 27 forecast: a greedy throughput-optimizer
  // would flip depth every interval (best(26)=2x13, best(27)=3x9);
  // the liveput DP must find a plan with fewer depth changes than
  // that while committing at least as much in expectation.
  const auto tm = gpt2_model();
  ASSERT_NE(tm.best_config(26).pp, tm.best_config(27).pp);
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm, 256);
  std::vector<int> churn;
  for (int i = 0; i < 10; ++i) churn.push_back(i % 2 ? 27 : 26);
  const IntervalPlan plan = opt.optimize(tm.best_config(26), 26, churn);
  int depth_changes = 0;
  for (std::size_t i = 1; i < plan.configs.size(); ++i)
    if (plan.configs[i].pp != plan.configs[i - 1].pp) ++depth_changes;
  EXPECT_LE(depth_changes, 2);
}

// Brute-force check of DP optimality on a small instance.
TEST(LiveputOptimizer, MatchesBruteForceOnSmallInstance) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm, 64);
  const std::vector<int> predicted{8, 6, 8};
  const ParallelConfig start{2, 3};
  const int n_now = 8;
  const double T = 60.0;

  // Enumerate every sequence of configurations over the horizon.
  std::vector<std::vector<ParallelConfig>> space;
  for (int n : predicted) {
    auto configs = tm.enumerate_configs(n);
    configs.push_back(kIdleConfig);
    space.push_back(std::move(configs));
  }
  double best_value = -1.0;
  std::function<void(std::size_t, ParallelConfig, int, double)> recurse =
      [&](std::size_t i, ParallelConfig prev, int n_prev, double acc) {
        if (i == space.size()) {
          best_value = std::max(best_value, acc);
          return;
        }
        const int n_cur = predicted[i];
        const int k = std::max(0, n_prev - n_cur);
        for (const auto& cand : space[i]) {
          const double mig =
              opt.expected_migration_cost(prev, n_prev, cand, k);
          const double gain =
              tm.throughput(cand) * std::max(0.0, T - mig);
          recurse(i + 1, cand, n_cur, acc + gain);
        }
      };
  recurse(0, start, n_now, 0.0);

  const IntervalPlan plan = opt.optimize(start, n_now, predicted);
  EXPECT_NEAR(plan.expected_value, best_value,
              1e-6 * std::max(1.0, best_value));
}

TEST(LiveputOptimizer, AdviseReturnsFirstStep) {
  const auto tm = gpt2_model();
  const LiveputObjective objective(&tm);
  auto opt = make_optimizer(objective, tm);
  const std::vector<int> predicted{20, 20, 20};
  const IntervalPlan plan = opt.optimize({2, 8}, 20, predicted);
  EXPECT_EQ(opt.advise({2, 8}, 20, predicted), plan.configs.front());
}

}  // namespace
}  // namespace parcae
