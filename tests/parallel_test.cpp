// Tests for ParallelConfig and the THROUGHPUT(D, P) model.
#include <gtest/gtest.h>

#include <cmath>

#include "model/model_profile.h"
#include "parallel/throughput_model.h"

namespace parcae {
namespace {

ThroughputModel parcae_model(const ModelProfile& m) {
  return ThroughputModel(m, {.memory = MemorySpec::parcae()});
}

TEST(ParallelConfig, Basics) {
  const ParallelConfig c{3, 4};
  EXPECT_EQ(c.instances(), 12);
  EXPECT_TRUE(c.valid());
  EXPECT_FALSE(kIdleConfig.valid());
  EXPECT_EQ(c.to_string(), "3x4");
  EXPECT_EQ(c, (ParallelConfig{3, 4}));
  EXPECT_NE(c, (ParallelConfig{4, 3}));
}

TEST(ThroughputModel, InfeasibleConfigsHaveZeroThroughput) {
  const auto tm = parcae_model(gpt3_profile());
  // Below the memory-feasible minimum depth (9 for GPT-3 on Parcae).
  EXPECT_EQ(tm.throughput({1, 4}), 0.0);
  EXPECT_TRUE(std::isinf(tm.iteration_time({1, 4})));
  // Invalid configs.
  EXPECT_EQ(tm.throughput(kIdleConfig), 0.0);
  // Deeper than the model has layers.
  EXPECT_EQ(tm.throughput({1, gpt3_profile().partition_units + 1}), 0.0);
}

TEST(ThroughputModel, DataParallelismCappedByMicroBatches) {
  // GPT-3: mini 64, micro 1 -> at most 64 pipelines.
  const auto tm = parcae_model(gpt3_profile());
  EXPECT_FALSE(tm.feasible({65, 9}));
  // ResNet: mini 2048, micro 32 -> at most 64 pipelines.
  const auto tr = parcae_model(resnet152_profile());
  EXPECT_TRUE(tr.feasible({64, 1}));
  EXPECT_FALSE(tr.feasible({65, 1}));
}

TEST(ThroughputModel, ThroughputIsSamplesPerIterationTime) {
  const auto tm = parcae_model(gpt2_profile());
  const ParallelConfig c{2, 8};
  const double iter = tm.iteration_time(c);
  ASSERT_TRUE(std::isfinite(iter));
  EXPECT_NEAR(tm.throughput(c), gpt2_profile().mini_batch / iter, 1e-9);
  EXPECT_NEAR(tm.unit_throughput(c), tm.throughput(c) * 1024.0, 1e-6);
}

TEST(ThroughputModel, EnumerationRespectsResourceBound) {
  const auto tm = parcae_model(gpt2_profile());
  for (int n : {4, 9, 17, 32}) {
    for (const auto& c : tm.enumerate_configs(n)) {
      EXPECT_LE(c.instances(), n);
      EXPECT_GE(c.pp, tm.min_pipeline_depth());
      EXPECT_GT(tm.throughput(c), 0.0);
    }
  }
}

TEST(ThroughputModel, EnumerationSpaceIsNLogNSized) {
  const auto tm = parcae_model(bert_large_profile());
  // Pairs (D, P) with D*P <= 32 number sum_p 32/p ~ 32 * H(32) ~ 130.
  const auto configs = tm.enumerate_configs(32);
  EXPECT_GT(configs.size(), 30u);
  EXPECT_LT(configs.size(), 150u);
}

class BestConfigMonotoneTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Zoo, BestConfigMonotoneTest,
                         ::testing::Range<std::size_t>(0, 5));

TEST_P(BestConfigMonotoneTest, MoreInstancesNeverHurt) {
  const ModelProfile m = model_zoo()[GetParam()];
  const auto tm = parcae_model(m);
  double prev = 0.0;
  for (int n = 1; n <= 32; ++n) {
    const ParallelConfig best = tm.best_config(n);
    const double tput = tm.throughput(best);
    EXPECT_GE(tput, prev - 1e-9) << m.name << " at N=" << n;
    prev = std::max(prev, tput);
  }
}

TEST_P(BestConfigMonotoneTest, BestConfigIsArgmaxOfEnumeration) {
  const ModelProfile m = model_zoo()[GetParam()];
  const auto tm = parcae_model(m);
  const ParallelConfig best = tm.best_config(24);
  for (const auto& c : tm.enumerate_configs(24))
    EXPECT_LE(tm.throughput(c), tm.throughput(best) + 1e-9);
}

TEST(ThroughputModel, BestConfigIdleWhenNothingFits) {
  const auto tm = parcae_model(gpt3_profile());
  // Fewer instances than GPT-3's minimum depth of 9.
  EXPECT_EQ(tm.best_config(8), kIdleConfig);
  EXPECT_NE(tm.best_config(9), kIdleConfig);
}

TEST(ThroughputModel, LongerPipelineMoreVulnerableShorterLessEfficient) {
  // §3.2's setup: at equal instance count, the deeper pipeline has
  // the bubble of (P-1) but smaller all-reduce shards. For GPT-2 with
  // plenty of microbatches, both are feasible and within 2x.
  const auto tm = parcae_model(gpt2_profile());
  const double deep = tm.throughput({2, 12});
  const double shallow = tm.throughput({4, 6});
  ASSERT_GT(deep, 0.0);
  ASSERT_GT(shallow, 0.0);
  EXPECT_LT(std::abs(std::log(deep / shallow)), std::log(2.0));
}

TEST(ThroughputModel, RedundantComputeTaxesThroughput) {
  const ThroughputModelOptions with_tax{.memory = MemorySpec::parcae(),
                                        .redundant_compute_fraction = 0.65};
  const ThroughputModel plain = parcae_model(gpt2_profile());
  const ThroughputModel taxed(gpt2_profile(), with_tax);
  const ParallelConfig c{2, 8};
  EXPECT_NEAR(taxed.throughput(c) / plain.throughput(c), 1.0 / 1.65, 0.08);
}

TEST(ThroughputModel, MinDepthExposed) {
  EXPECT_EQ(parcae_model(gpt3_profile()).min_pipeline_depth(), 9);
  EXPECT_EQ(parcae_model(bert_large_profile()).min_pipeline_depth(), 1);
}

}  // namespace
}  // namespace parcae
