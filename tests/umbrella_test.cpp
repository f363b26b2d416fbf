// Smoke test for the umbrella header: everything in the public API is
// reachable from one include and composes.
#include "parcae.h"

#include <gtest/gtest.h>

namespace parcae {
namespace {

TEST(Umbrella, EndToEndSmoke) {
  // Trace -> predictor -> optimizer -> policy -> simulator, all from
  // one header.
  const ModelProfile model = bert_large_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailSparse);

  auto predictor = make_parcae_predictor(32.0);
  const auto forecast =
      predictor->forecast(trace.availability_series_d(), 4);
  EXPECT_EQ(forecast.size(), 4u);

  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  IntervalDp optimizer(&objective, CostEstimator(model));
  const ParallelConfig advice =
      optimizer.advise(tm.best_config(30), 30, {30, 30, 29, 29});
  EXPECT_TRUE(advice.valid());

  ParcaePolicy policy(model, {});
  SimulationOptions sim;
  sim.units_per_sample = model.tokens_per_sample;
  const SimulationResult result = simulate(policy, trace, sim);
  EXPECT_GT(result.committed_units, 0.0);
}

TEST(Umbrella, RealClusterSmoke) {
  const auto dataset = nn::make_blobs(64, 8, 3, 0.4, 1);
  TrainingClusterOptions options;
  options.layer_sizes = {8, 16, 3};
  options.epoch_size = dataset.size();
  options.batch_size = 16;
  options.initial_instances = 4;
  TrainingCluster cluster(options, &dataset);
  EXPECT_EQ(cluster.reconfigure({2, 2}), MigrationKind::kPipeline);
  EXPECT_TRUE(cluster.train_iteration().has_value());
}

TEST(Umbrella, WalCrc32MatchesReferenceVector) {
  // The umbrella header exports exactly one crc32: the WAL's frame
  // checksum. A second overload would make this call ambiguous.
  // CRC-32("123456789") = 0xcbf43926 (IEEE reference value).
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

}  // namespace
}  // namespace parcae
