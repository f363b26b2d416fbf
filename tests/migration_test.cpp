// Tests for preemption mapping/sampling (§6.1, §7.3), the migration
// cost estimator (§9.4 / Table 4), the migration planner (§6.2), and
// the §8 parallelization-adaptation step.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "migration/cost_model.h"
#include "migration/migration_expectation.h"
#include "migration/planner.h"
#include "migration/preemption.h"
#include "model/memory_model.h"
#include "model/model_profile.h"

namespace parcae {
namespace {

TEST(PreemptionMapping, KillsExactlyKInstances) {
  Rng rng(3);
  const ParallelConfig c{4, 6};
  for (int k = 0; k <= 10; ++k) {
    const PreemptionDraw draw = sample_preemption(c, /*idle=*/4, k, rng);
    int alive = draw.idle_alive;
    for (int a : draw.alive_per_stage) alive += a;
    EXPECT_EQ(alive, c.instances() + 4 - k);
    EXPECT_EQ(draw.alive_per_stage.size(), 6u);
    for (int a : draw.alive_per_stage) {
      EXPECT_GE(a, 0);
      EXPECT_LE(a, 4);
    }
  }
}

TEST(PreemptionMapping, MinAliveStageIsConsistent) {
  Rng rng(5);
  for (int t = 0; t < 200; ++t) {
    const PreemptionDraw draw = sample_preemption({3, 5}, 2, 6, rng);
    const int expect =
        *std::min_element(draw.alive_per_stage.begin(),
                          draw.alive_per_stage.end());
    EXPECT_EQ(draw.min_alive_stage, expect);
  }
}

// E[intra-stage-recoverable pipelines] = sum_d d * P(d).
double mean_intra_pipelines(const PreemptionSummary& s) {
  double mean = 0.0;
  for (std::size_t d = 0; d < s.intra_pipelines_prob.size(); ++d)
    mean += static_cast<double>(d) * s.intra_pipelines_prob[d];
  return mean;
}

TEST(PreemptionSampler, NoPreemptionsMeansFullSurvival) {
  PreemptionSampler sampler(1);
  const PreemptionSummary& s = sampler.summarize({3, 4}, 2, 0);
  EXPECT_DOUBLE_EQ(s.intra_pipelines_prob[3], 1.0);
  EXPECT_DOUBLE_EQ(mean_intra_pipelines(s), 3.0);
  EXPECT_DOUBLE_EQ(s.stage_alive_prob[3], 1.0);
  EXPECT_DOUBLE_EQ(s.stage_wipeout_prob, 0.0);
}

TEST(PreemptionSampler, DistributionsAreNormalized) {
  PreemptionSampler sampler(2, 512);
  const PreemptionSummary& s = sampler.summarize({4, 5}, 3, 5);
  const double psum = std::accumulate(s.intra_pipelines_prob.begin(),
                                      s.intra_pipelines_prob.end(), 0.0);
  EXPECT_NEAR(psum, 1.0, 1e-9);
  const double asum = std::accumulate(s.stage_alive_prob.begin(),
                                      s.stage_alive_prob.end(), 0.0);
  EXPECT_NEAR(asum, 1.0, 1e-9);
}

TEST(PreemptionSampler, WipeoutProbabilityGrowsWithPreemptions) {
  PreemptionSampler sampler(3, 512);
  double prev = -1.0;
  for (int k : {0, 4, 8, 12, 15}) {
    const double w = sampler.summarize({4, 4}, 0, k).stage_wipeout_prob;
    EXPECT_GE(w, prev - 0.02);  // Monte-Carlo slack
    prev = w;
  }
  EXPECT_NEAR(sampler.summarize({4, 4}, 0, 16).stage_wipeout_prob, 1.0, 1e-9);
}

TEST(PreemptionSampler, ExpectedIntraPipelinesDecreasesWithK) {
  PreemptionSampler sampler(4, 512);
  double prev = 1e9;
  for (int k = 0; k <= 8; ++k) {
    const double d = mean_intra_pipelines(sampler.summarize({4, 6}, 2, k));
    EXPECT_LE(d, prev + 0.05);
    prev = d;
  }
}

TEST(PreemptionSampler, IdleInstancesAbsorbDamage) {
  PreemptionSampler sampler(5, 1024);
  const double with_spares =
      mean_intra_pipelines(sampler.summarize({3, 4}, 10, 3));
  const double without = mean_intra_pipelines(sampler.summarize({3, 4}, 0, 3));
  EXPECT_GT(with_spares, without);
}

TEST(PreemptionSampler, CachesSummaries) {
  PreemptionSampler sampler(6, 64);
  const PreemptionSummary* a = &sampler.summarize({2, 3}, 1, 2);
  const PreemptionSummary* b = &sampler.summarize({2, 3}, 1, 2);
  EXPECT_EQ(a, b);  // same object from the cache
}

TEST(MigrationExpectation, EdgeArithmeticMatchesTheFullMixture) {
  // An edge walks only the intra buckets with mass, sums inter-stage
  // moves only over a < to.dp, and prices the inter-stage migration at
  // most once. The full mixture over every bucket, with the destination
  // terms priced afresh, must agree bit for bit, including width
  // growth at the same depth (to.dp > from.dp).
  const ModelProfile model = gpt2_profile();
  const CostEstimator estimator(model);
  MigrationExpectation expectation(estimator, 256, 5);
  int priced = 0;
  for (const ParallelConfig from : {ParallelConfig{1, 1}, ParallelConfig{3, 4},
                                    ParallelConfig{4, 7}, ParallelConfig{8, 3}})
    for (const int idle : {0, 3})
      for (const int preemptions : {0, 1, 2, 5, 12}) {
        const int k = std::min(preemptions, from.instances() + idle);
        for (int dp = 1; dp <= from.dp + 3; ++dp)
          for (const int pp : {from.pp, from.pp + 1}) {
            const ParallelConfig to{dp, pp};
            if (k == 0 && to == from) continue;  // the free stay
            const double got =
                expectation.cost(from, from.instances() + idle, to, k);
            const PreemptionSummary& s =
                expectation.sampler().summarize(from, idle, k);
            const double rollback = estimator.checkpoint_rollback(to).total();
            double want = 0.0;
            if (to.pp != from.pp) {
              want = s.stage_wipeout_prob * rollback +
                     (1.0 - s.stage_wipeout_prob) *
                         estimator.pipeline_migration(from, to).total();
            } else {
              double moves = 0.0;
              for (std::size_t a = 0; a < s.stage_alive_prob.size(); ++a)
                moves += s.stage_alive_prob[a] *
                         std::max(0.0, static_cast<double>(to.dp) -
                                           static_cast<double>(a));
              moves *= static_cast<double>(from.pp);
              const int m = std::max(1, static_cast<int>(std::lround(moves)));
              for (std::size_t d = 0; d < s.intra_pipelines_prob.size(); ++d) {
                const double p = s.intra_pipelines_prob[d];
                if (p <= 0.0) continue;
                if (d == 0)
                  want += p * rollback;
                else if (static_cast<int>(d) >= to.dp)
                  want += p * estimator.intra_stage(to).total();
                else
                  want += p * estimator.inter_stage(to, m).total();
              }
            }
            EXPECT_EQ(got, want) << from.to_string() << " -> "
                                 << to.to_string() << " idle " << idle
                                 << " k " << k;
            ++priced;
          }
      }
  EXPECT_GT(priced, 300);
}

// ---------------------------------------------------------------------------
// Cost estimator: Table 4 magnitudes.

TEST(CostEstimator, IntraStageIsRoutingOnly) {
  const CostEstimator est(gpt2_profile());
  const MigrationCostTerms t = est.intra_stage({4, 7});
  EXPECT_DOUBLE_EQ(t.state_transfer_s, 0.0);
  EXPECT_DOUBLE_EQ(t.build_model_s, 0.0);
  EXPECT_GT(t.total(), 0.0);
  EXPECT_LT(t.total(), 15.0);
}

TEST(CostEstimator, InterStageTransfersOneStage) {
  const CostEstimator est(gpt2_profile());
  const MigrationCostTerms t = est.inter_stage({4, 7}, 2);
  EXPECT_GT(t.state_transfer_s, 0.5);
  EXPECT_LT(t.state_transfer_s, 60.0);
  EXPECT_GT(t.total(), est.intra_stage({4, 7}).total());
}

TEST(CostEstimator, MoreMovesFromSameSourceContend) {
  const CostEstimator est(gpt2_profile());
  const double few = est.inter_stage({2, 7}, 2).state_transfer_s;
  const double many = est.inter_stage({2, 7}, 8).state_transfer_s;
  EXPECT_GT(many, few);
}

TEST(CostEstimator, PipelineMigrationIsTheExpensiveOption) {
  const CostEstimator est(gpt2_profile());
  const double intra = est.intra_stage({4, 7}).total();
  const double inter = est.inter_stage({4, 7}, 2).total();
  const double pipeline = est.pipeline_migration({2, 13}, {4, 7}).total();
  EXPECT_LT(intra, inter);
  EXPECT_LT(inter, pipeline);
}

class Table4MagnitudeTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Zoo, Table4MagnitudeTest,
                         ::testing::Range<std::size_t>(0, 5));

TEST_P(Table4MagnitudeTest, TermsStayInProfiledRanges) {
  const ModelProfile m = model_zoo()[GetParam()];
  const CostEstimator est(m);
  const int p = std::max(2, MemoryModel(m, MemorySpec::parcae())
                                .min_feasible_depth());
  const ParallelConfig to{2, p};
  for (const MigrationCostTerms& t :
       {est.intra_stage(to), est.inter_stage(to, 3),
        est.pipeline_migration({1, p + 1}, to), est.instance_join(to),
        est.checkpoint_rollback(to)}) {
    EXPECT_LT(t.start_process_s, 1.0);          // Table 4: < 1 s
    EXPECT_LE(t.rendezvous_s, 10.0);            // 0-10 s
    EXPECT_LE(t.cuda_init_s, 10.0);             // 0-10 s
    EXPECT_LE(t.load_data_s, 10.0);             // 0-10 s
    EXPECT_LE(t.build_model_s, 20.0) << m.name; // 0-10 s (GPT-3 shard ~12GB)
    EXPECT_LE(t.comm_groups_s, 20.0);           // 0-20 s
    EXPECT_LE(t.state_transfer_s, 120.0);       // 0-60 s (2 intervals max)
  }
}

TEST(CostEstimator, RollbackCostScalesWithModelSize) {
  const CostEstimator small(bert_large_profile());
  const CostEstimator large(gpt3_profile());
  EXPECT_GT(large.checkpoint_rollback({1, 9}).total(),
            small.checkpoint_rollback({2, 4}).total());
}

// ---------------------------------------------------------------------------
// Planner.

MigrationPlanner gpt2_planner() {
  return MigrationPlanner(CostEstimator(gpt2_profile()));
}

ClusterSnapshot snapshot(ParallelConfig c, std::vector<int> alive, int idle,
                         int fresh = 0) {
  ClusterSnapshot s;
  s.config = c;
  s.alive_per_stage = std::move(alive);
  s.idle_alive = idle;
  s.newly_allocated = fresh;
  return s;
}

TEST(Planner, NoChangeNoDamageIsFree) {
  const auto planner = gpt2_planner();
  const MigrationPlan plan =
      planner.plan(snapshot({3, 4}, {3, 3, 3, 3}, 0), {3, 4});
  EXPECT_EQ(plan.kind, MigrationKind::kNone);
  EXPECT_DOUBLE_EQ(plan.stall_s(), 0.0);
}

TEST(Planner, IntraStageWhenSurvivorsSuffice) {
  // One pipeline broken in different stages; dropping to D=2 only
  // needs routing changes (the Figure 6a scenario).
  const auto planner = gpt2_planner();
  const MigrationPlan plan =
      planner.plan(snapshot({3, 4}, {2, 3, 3, 2}, 0), {2, 4});
  EXPECT_EQ(plan.kind, MigrationKind::kIntraStage);
  EXPECT_EQ(plan.inter_stage_moves, 0);
}

TEST(Planner, InterStageWhenStagesMustRebalance) {
  // Figure 6b: stage deficits require instances to switch stages.
  const auto planner = gpt2_planner();
  const MigrationPlan plan =
      planner.plan(snapshot({3, 4}, {3, 1, 3, 3}, 2), {3, 4});
  EXPECT_EQ(plan.kind, MigrationKind::kInterStage);
  EXPECT_EQ(plan.inter_stage_moves, 2);  // stage 1 is short two replicas
  EXPECT_GT(plan.stall_s(), 0.0);
}

TEST(Planner, PipelineMigrationOnDepthChange) {
  const auto planner = gpt2_planner();
  const MigrationPlan plan =
      planner.plan(snapshot({2, 13}, {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
                            2),
                   {4, 7});
  EXPECT_EQ(plan.kind, MigrationKind::kPipeline);
  EXPECT_GT(plan.stall_s(), 20.0);
}

TEST(Planner, RollbackWhenStageWipedOut) {
  const auto planner = gpt2_planner();
  const MigrationPlan same_depth =
      planner.plan(snapshot({3, 4}, {3, 0, 3, 3}, 3), {3, 4});
  EXPECT_EQ(same_depth.kind, MigrationKind::kRollback);
  const MigrationPlan new_depth =
      planner.plan(snapshot({3, 4}, {3, 0, 3, 3}, 3), {2, 6});
  EXPECT_EQ(new_depth.kind, MigrationKind::kRollback);
}

TEST(Planner, SuspendOnInvalidTarget) {
  const auto planner = gpt2_planner();
  const MigrationPlan plan =
      planner.plan(snapshot({3, 4}, {1, 0, 1, 1}, 0), kIdleConfig);
  EXPECT_EQ(plan.kind, MigrationKind::kSuspend);
  EXPECT_DOUBLE_EQ(plan.stall_s(), 0.0);
}

TEST(Planner, ResumeFromSuspensionRestoresFromPs) {
  const auto planner = gpt2_planner();
  ClusterSnapshot s;
  s.config = kIdleConfig;
  s.idle_alive = 10;
  const MigrationPlan plan = planner.plan(s, {2, 5});
  EXPECT_EQ(plan.kind, MigrationKind::kRollback);
  EXPECT_GT(plan.stall_s(), 0.0);
}

// ---------------------------------------------------------------------------
// §8 adaptation.

TEST(Adaptation, PreservesDepthWhenPossible) {
  // Desired 4x8 but only 29 instances: drop to 3 pipelines, keep P=8.
  EXPECT_EQ(adapt_configuration({4, 8}, 29, 2, 48, 64),
            (ParallelConfig{3, 8}));
  // With 35 instances it can grow to 4 pipelines.
  EXPECT_EQ(adapt_configuration({4, 8}, 35, 2, 48, 64),
            (ParallelConfig{4, 8}));
}

TEST(Adaptation, RepartitionsWhenDepthUnreachable) {
  // Desired depth 8 but only 5 instances and the model fits at 3:
  // re-partition to the minimum feasible depth.
  const ParallelConfig c = adapt_configuration({4, 8}, 5, 3, 48, 64);
  EXPECT_EQ(c, (ParallelConfig{1, 3}));
}

TEST(Adaptation, SuspendsBelowMinimumDepth) {
  EXPECT_EQ(adapt_configuration({2, 9}, 8, 9, 32, 64), kIdleConfig);
  EXPECT_EQ(adapt_configuration({1, 9}, 0, 9, 32, 64), kIdleConfig);
}

TEST(Adaptation, RespectsPipelineCap) {
  // ResNet-style: plenty of instances but D capped by mini/micro.
  const ParallelConfig c = adapt_configuration({64, 1}, 32, 1, 50, 8);
  EXPECT_LE(c.dp, 8);
}

TEST(Adaptation, InvalidDesiredFallsBackToMinDepth) {
  const ParallelConfig c = adapt_configuration(kIdleConfig, 12, 4, 48, 64);
  EXPECT_EQ(c, (ParallelConfig{3, 4}));
}

}  // namespace
}  // namespace parcae
