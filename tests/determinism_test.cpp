// The performance layer's contract: threading and the DP's own
// structure must never change a decision. optimize() plans match a
// naive reference DP bit for bit; optimize() plans, full ParcaePolicy
// simulations, and run_matrix cells are bit-identical at any thread
// count; scratch-buffer sampling consumes the same RNG draws as the
// allocating path.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "analysis/experiment.h"
#include "common/rng.h"
#include "core/liveput_optimizer.h"
#include "migration/migration_expectation.h"
#include "migration/preemption.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "runtime/parcae_policy.h"
#include "serve/serving_scheduler.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// A forecast battery covering the DP's regimes: flat (repeated
// intervals), growth (allocations), decay (preemptions), and a
// volatile segment straight from a canonical trace.
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

// The textbook interval DP, to diff IntervalDp against: candidate-major,
// every edge priced afresh by its own MigrationExpectation::cost() plus
// the objective's switch stall, the same value formula and first-wins
// strict >. No warm start, no predecessor pass, no threads.
class ReferenceDp {
 public:
  ReferenceDp(const SchedulingObjective* objective, const ModelProfile& model,
              const IntervalDpOptions& options, obs::MetricsRegistry* metrics)
      : objective_(objective),
        interval_s_(options.interval_s),
        migration_(CostEstimator(model), options.mc_trials, options.seed) {
    migration_.sampler().set_metrics(metrics);
  }

  IntervalPlan optimize(ParallelConfig current, int n_now,
                        const std::vector<int>& predicted,
                        const std::vector<double>& load) {
    const std::size_t I = predicted.size();
    std::vector<std::vector<ParallelConfig>> space(I);
    std::vector<std::vector<double>> best(I);
    std::vector<std::vector<int>> parent(I);
    for (std::size_t i = 0; i < I; ++i) {
      space[i] = objective_->candidates(predicted[i]);
      space[i].push_back(kIdleConfig);
      const int n_prev = i == 0 ? n_now : predicted[i - 1];
      const int k = std::max(0, n_prev - predicted[i]);
      const double load_i = load.empty() ? 0.0 : load[i];
      const auto value_of = [&](ParallelConfig from, ParallelConfig to) {
        double stall = migration_.cost(from, n_prev, to, k);
        const double sw =
            from.valid() ? objective_->switch_cost(from, load_i) : 0.0;
        if (sw > 0.0 && to.valid() && to != from) stall += sw;
        return objective_->rate(to, load_i) *
               std::max(0.0, interval_s_ - stall);
      };
      best[i].assign(space[i].size(), kNegInf);
      parent[i].assign(space[i].size(), -1);
      for (std::size_t j = 0; j < space[i].size(); ++j) {
        if (i == 0) {
          best[0][j] = value_of(current, space[0][j]);
          continue;
        }
        for (std::size_t jj = 0; jj < space[i - 1].size(); ++jj) {
          if (best[i - 1][jj] == kNegInf) continue;
          const double value =
              best[i - 1][jj] + value_of(space[i - 1][jj], space[i][j]);
          if (value > best[i][j]) {
            best[i][j] = value;
            parent[i][j] = static_cast<int>(jj);
          }
        }
      }
    }
    std::size_t arg = 0;
    for (std::size_t j = 1; j < best[I - 1].size(); ++j)
      if (best[I - 1][j] > best[I - 1][arg]) arg = j;
    IntervalPlan plan;
    plan.expected_value = std::max(0.0, best[I - 1][arg]);
    plan.configs.assign(I, kIdleConfig);
    int cursor = static_cast<int>(arg);
    for (std::size_t i = I; i-- > 0;) {
      plan.configs[i] = space[i][static_cast<std::size_t>(cursor)];
      if (i > 0) cursor = parent[i][static_cast<std::size_t>(cursor)];
    }
    return plan;
  }

 private:
  const SchedulingObjective* objective_;
  double interval_s_;
  MigrationExpectation migration_;
};

struct DpStep {
  std::vector<int> predicted;
  std::vector<double> load;  // empty: the objective has no load
};

// Walks `steps` through IntervalDp (warm-started, threads 1 and 4) and
// the reference, chaining the advised config: plans must be
// bit-identical and both engines must draw the same MC summaries.
void expect_matches_reference(const SchedulingObjective& objective,
                              const ModelProfile& model,
                              IntervalDpOptions options, ParallelConfig current,
                              int n_now, const std::vector<DpStep>& steps) {
  for (const int threads : {1, 4}) {
    obs::MetricsRegistry dp_metrics;
    obs::MetricsRegistry reference_metrics;
    options.threads = threads;
    options.metrics = &dp_metrics;
    IntervalDp dp(&objective, CostEstimator(model), options);
    ReferenceDp reference(&objective, model, options, &reference_metrics);
    ParallelConfig live = current;
    int n = n_now;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      const IntervalPlan got =
          dp.optimize(live, n, steps[s].predicted, steps[s].load);
      const IntervalPlan want =
          reference.optimize(live, n, steps[s].predicted, steps[s].load);
      EXPECT_EQ(got.configs, want.configs)
          << "threads " << threads << " step " << s;
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got.expected_value, want.expected_value)
          << "threads " << threads << " step " << s;
      live = got.next();
      n = steps[s].predicted.front();
    }
    EXPECT_GT(dp_metrics.counter_value("mc_sampler.samples"), 0.0);
    EXPECT_EQ(dp_metrics.counter_value("mc_sampler.samples"),
              reference_metrics.counter_value("mc_sampler.samples"))
        << "threads " << threads;
  }
}

TEST(Determinism, OptimizeMatchesNaiveReferenceDp) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  std::vector<DpStep> steps;
  for (const auto& predicted : forecast_battery())
    steps.push_back({predicted, {}});
  // Idle-only column after live predecessors (N = 0 with k = 28 > 0):
  // no edge reads a summary, so nothing may be drawn for it; the later
  // k = 2 column's summaries would shift if anything were.
  steps.push_back({{28, 28, 0, 28, 26, 26}, {}});
  ASSERT_FALSE(tm.enumerate_configs(28).empty());  // live predecessors
  // Width growth at the same depth: every column into N = 32 prices
  // same-depth edges with to.dp > from.dp (the inter-stage mixture).
  steps.push_back({{16, 32, 32, 32, 30, 32}, {}});
  IntervalDpOptions options;
  options.mc_trials = 128;
  options.seed = 17;
  expect_matches_reference(objective, model, options, tm.best_config(28), 28,
                           steps);
}

TEST(Determinism, GoodputOptimizeMatchesNaiveReferenceDp) {
  const ModelProfile model = model_by_name("GPT-2");
  const serve::GoodputObjective objective(model, {}, {}, nullptr, 32);
  const ParallelConfig live = objective.best_config(16, 40.0);
  ASSERT_GT(objective.switch_cost(live, 40.0), 0.0);  // drain is charged
  const std::vector<DpStep> steps = {
      {{16, 16, 14, 12, 12, 16, 20, 24}, {40, 40, 80, 80, 40, 20, 20, 40}},
      {{16, 12, 12, 0, 8, 8, 16, 16}, {40, 60, 60, 60, 30, 30, 30, 30}},
      {{16, 16, 16, 16, 16, 16, 16, 16}, std::vector<double>(8, 90.0)},
  };
  IntervalDpOptions options;
  options.mc_trials = 64;
  options.seed = 11;
  expect_matches_reference(objective, model, options, live, 16, steps);
}

TEST(Determinism, EdgePriceDoesNotDependOnEarlierQueries) {
  // The former transition memo packed to.dp into 10 bits, so 1025x1
  // aliased 1x1 and returned the 1x1 -> 1x1 price. Every edge must
  // price as it would on a fresh engine.
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  LiveputOptimizerOptions options;
  options.mc_trials = 128;
  options.seed = 17;
  LiveputOptimizer engine(&tm, CostEstimator(model), options);
  LiveputOptimizer fresh(&tm, CostEstimator(model), options);
  const ParallelConfig from{1, 1};
  const double stay = engine.expected_migration_cost(from, 8, {1, 1}, 2);
  const double wide = engine.expected_migration_cost(from, 8, {1025, 1}, 2);
  EXPECT_NE(wide, stay);
  EXPECT_EQ(wide, fresh.expected_migration_cost(from, 8, {1025, 1}, 2));
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
