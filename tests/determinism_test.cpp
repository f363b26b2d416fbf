// The performance layer's contract: threading and memoization must
// never change a decision. optimize() plans, full ParcaePolicy
// simulations, and run_matrix cells are bit-identical at any thread
// count; scratch-buffer sampling consumes the same RNG draws as the
// allocating path.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/experiment.h"
#include "common/rng.h"
#include "core/liveput_optimizer.h"
#include "migration/preemption.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

// A forecast battery covering the DP's regimes: flat (memo-heavy),
// growth (allocations), decay (preemptions), and a volatile segment
// straight from a canonical trace.
std::vector<std::vector<int>> forecast_battery() {
  std::vector<std::vector<int>> battery = {
      std::vector<int>(12, 26),
      {28, 28, 27, 26, 24, 20, 16, 12, 12, 16, 20, 28},
      {8, 12, 16, 20, 24, 28, 32, 32, 32, 32, 32, 32},
      {32, 30, 24, 16, 8, 4, 2, 0, 0, 4, 12, 24},
  };
  const std::vector<int> series =
      canonical_segment(TraceSegment::kLowAvailDense).availability_series();
  battery.emplace_back(series.begin(),
                       series.begin() + std::min<std::size_t>(12,
                                                              series.size()));
  return battery;
}

TEST(Determinism, OptimizePlansBitIdenticalAcrossThreadCounts) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  for (const int threads : {2, 8}) {
    LiveputOptimizer serial(&tm, CostEstimator(model),
                            LiveputOptimizerOptions{60.0, 128, 17, nullptr,
                                                    1});
    LiveputOptimizer threaded(&tm, CostEstimator(model),
                              LiveputOptimizerOptions{60.0, 128, 17, nullptr,
                                                      threads});
    ParallelConfig current = tm.best_config(28);
    int n_now = 28;
    for (const auto& predicted : forecast_battery()) {
      const LiveputPlan a = serial.optimize(current, n_now, predicted);
      const LiveputPlan b = threaded.optimize(current, n_now, predicted);
      ASSERT_EQ(a.configs.size(), b.configs.size());
      for (std::size_t i = 0; i < a.configs.size(); ++i)
        EXPECT_EQ(a.configs[i], b.configs[i]) << "interval " << i;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(a.expected_value, b.expected_value);
      // Chain the walk so later forecasts start from evolved state.
      current = a.next();
      n_now = predicted.front();
    }
  }
}

TEST(Determinism, ParcaePolicySimulationIdenticalWithThreadedDP) {
  const ModelProfile model = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  auto run = [&](int threads) {
    ParcaePolicyOptions options;
    options.threads = threads;
    ParcaePolicy policy(model, options);
    SimulationOptions sim;
    sim.units_per_sample = model.tokens_per_sample;
    return simulate(policy, trace, sim);
  };
  const SimulationResult serial = run(1);
  const SimulationResult threaded = run(8);
  EXPECT_EQ(serial.committed_units, threaded.committed_units);
  EXPECT_EQ(serial.committed_samples, threaded.committed_samples);
  EXPECT_EQ(serial.total_cost_usd, threaded.total_cost_usd);
  EXPECT_EQ(serial.gpu_hours.effective, threaded.gpu_hours.effective);
  EXPECT_EQ(serial.gpu_hours.lost, threaded.gpu_hours.lost);
  ASSERT_EQ(serial.timeline.size(), threaded.timeline.size());
  for (std::size_t i = 0; i < serial.timeline.size(); ++i)
    EXPECT_EQ(serial.timeline[i].config, threaded.timeline[i].config)
        << "interval " << i;
}

TEST(Determinism, RunMatrixCellsIdenticalAcrossThreadCounts) {
  MatrixOptions options;
  options.models = {gpt2_profile()};
  options.traces = {canonical_segment(TraceSegment::kHighAvailSparse),
                    canonical_segment(TraceSegment::kLowAvailSparse)};
  // Parcae + the two paper baselines keeps the cell mix representative
  // and the test fast.
  std::vector<PolicySpec> policies;
  for (PolicySpec& spec : standard_policies())
    if (spec.name == "Parcae" || spec.name == "Varuna" ||
        spec.name == "Bamboo")
      policies.push_back(std::move(spec));
  options.policies = policies;

  options.threads = 1;
  const std::vector<CellResult> serial = run_matrix(options);
  options.threads = 4;
  const std::vector<CellResult> threaded = run_matrix(options);

  ASSERT_EQ(serial.size(), threaded.size());
  ASSERT_EQ(serial.size(), 2u * policies.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].model, threaded[i].model) << i;
    EXPECT_EQ(serial[i].trace, threaded[i].trace) << i;
    EXPECT_EQ(serial[i].system, threaded[i].system) << i;
    EXPECT_EQ(serial[i].result.committed_units,
              threaded[i].result.committed_units)
        << i;
    EXPECT_EQ(serial[i].result.total_cost_usd,
              threaded[i].result.total_cost_usd)
        << i;
    EXPECT_EQ(serial[i].result.gpu_hours.effective,
              threaded[i].result.gpu_hours.effective)
        << i;
  }
}

TEST(Determinism, TransitionMemoReturnsIdenticalValuesAndCountsHits) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  obs::MetricsRegistry registry;
  LiveputOptimizer optimizer(&tm, CostEstimator(model),
                             LiveputOptimizerOptions{60.0, 128, 17,
                                                     &registry});
  const ParallelConfig from{3, 9};
  const ParallelConfig to{2, 13};
  const double first = optimizer.expected_migration_cost(from, 28, to, 2);
  const double second = optimizer.expected_migration_cost(from, 28, to, 2);
  EXPECT_EQ(first, second);
  EXPECT_EQ(optimizer.edge_cache_misses(), 1u);
  EXPECT_EQ(optimizer.edge_cache_hits(), 1u);
  // The hit/miss tallies flush into the registry after an optimize().
  optimizer.optimize(from, 28, std::vector<int>(4, 26));
  EXPECT_GT(registry.counter_value("liveput_dp.edge_cache_hits"), 0.0);
  EXPECT_GT(registry.counter_value("liveput_dp.edge_cache_misses"), 0.0);
}

TEST(Determinism, ScratchSamplingMatchesAllocatingPath) {
  // Rng overloads: same seed -> same victim sequences.
  Rng a(99);
  Rng b(99);
  std::vector<std::size_t> pool;
  std::vector<std::size_t> out;
  for (int round = 0; round < 20; ++round) {
    const auto reference = a.sample_without_replacement(40, 11);
    b.sample_without_replacement(40, 11, pool, out);
    EXPECT_EQ(reference, out) << "round " << round;
  }

  // Full preemption draws: allocating vs scratch overloads.
  Rng c(123);
  Rng d(123);
  const ParallelConfig config{4, 7};
  PreemptionDraw scratch_draw;
  PreemptionScratch scratch;
  for (int round = 0; round < 20; ++round) {
    const PreemptionDraw reference = sample_preemption(config, 3, 5, c);
    sample_preemption(config, 3, 5, d, scratch_draw, scratch);
    EXPECT_EQ(reference.alive_per_stage, scratch_draw.alive_per_stage);
    EXPECT_EQ(reference.idle_alive, scratch_draw.idle_alive);
    EXPECT_EQ(reference.min_alive_stage, scratch_draw.min_alive_stage);
  }
}

}  // namespace
}  // namespace parcae
