// The performance layer's contract: the DP's own structure must never
// change a decision. optimize() plans match a naive reference DP bit
// for bit, including the pruned scan's ties and warm re-solves that
// reuse columns; an edge's price does not depend on earlier queries;
// scratch-buffer sampling consumes the same RNG draws as the
// allocating path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/interval_dp.h"
#include "core/objective.h"
#include "migration/preemption.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "serve/serving_scheduler.h"
#include "trace/spot_trace.h"

#include "dp_oracles.h"

namespace parcae {
namespace {

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

struct DpStep {
  std::vector<int> predicted;
  std::vector<double> load = {};  // empty: the objective has no load
  // Re-solve from the previous step's live config and n_now instead of
  // following its plan, so the warm start can reuse columns.
  bool hold = false;
};

// Walks `steps` through IntervalDp (warm-started) and the reference,
// chaining the advised config unless a step holds: plans must be
// bit-identical, both engines must draw the same MC summaries, every
// held step must reuse DP states, and the bound must have spared
// IntervalDp some of the edges the reference prices.
void expect_matches_reference(const SchedulingObjective& objective,
                              const ModelProfile& model,
                              IntervalDpOptions options, ParallelConfig current,
                              int n_now, const std::vector<DpStep>& steps) {
  obs::MetricsRegistry dp_metrics;
  obs::MetricsRegistry reference_metrics;
  options.metrics = &dp_metrics;
  IntervalDp dp(&objective, CostEstimator(model), options);
  ReferenceDp reference(&objective, model, options, &reference_metrics);
  ParallelConfig live = current;
  int n = n_now;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::uint64_t reused = dp.states_reused();
    const IntervalPlan got =
        dp.optimize(live, n, steps[s].predicted, steps[s].load);
    const IntervalPlan want =
        reference.optimize(live, n, steps[s].predicted, steps[s].load);
    EXPECT_EQ(got.configs, want.configs) << "step " << s;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(got.expected_value, want.expected_value) << "step " << s;
    if (steps[s].hold) {
      EXPECT_GT(dp.states_reused(), reused) << "step " << s;
    }
    if (s + 1 < steps.size() && !steps[s + 1].hold) {
      live = got.next();
      n = steps[s].predicted.front();
    }
  }
  EXPECT_GT(dp_metrics.counter_value("mc_sampler.samples"), 0.0);
  EXPECT_EQ(dp_metrics.counter_value("mc_sampler.samples"),
            reference_metrics.counter_value("mc_sampler.samples"));
  EXPECT_LT(dp.edges_priced(), reference.edges_priced());
}

TEST(Determinism, OptimizeMatchesNaiveReferenceDp) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  std::vector<DpStep> steps;
  for (const auto& predicted : forecast_battery())
    steps.push_back({.predicted = predicted});
  // Idle-only column after live predecessors (N = 0 with k = 28 > 0):
  // no edge reads a summary, so nothing may be drawn for it; the later
  // k = 2 column's summaries would shift if anything were.
  steps.push_back({.predicted = {28, 28, 0, 28, 26, 26}});
  ASSERT_FALSE(tm.enumerate_configs(28).empty());  // live predecessors
  // Width growth at the same depth: every column into N = 32 prices
  // same-depth edges with to.dp > from.dp (the inter-stage mixture).
  steps.push_back({.predicted = {16, 32, 32, 32, 30, 32}});
  // Warm re-solves from one live state: a repeated forecast reuses every
  // column; a tail-only change re-expands the last; a mid-window edit
  // re-expands columns 5 and 6, and the columns after them see
  // unchanged direct inputs but must not be reused over changed values.
  std::vector<int> window = {28, 28, 27, 26, 24, 20, 16, 12, 12, 16, 20, 28};
  steps.push_back({.predicted = window});
  steps.push_back({.predicted = window, .hold = true});
  window.back() = 24;
  steps.push_back({.predicted = window, .hold = true});
  window[5] = 18;
  steps.push_back({.predicted = window, .hold = true});
  IntervalDpOptions options;
  options.mc_trials = 128;
  options.seed = 17;
  expect_matches_reference(objective, model, options, tm.best_config(28), 28,
                           steps);

  // The reaction where the pruned scan's bound is loosest: the live
  // config fills the pool and no longer fits after 2 preemptions, so
  // every edge out of it is a real migration and column 0's values
  // collapse into ties. A short look-ahead keeps the reference cheap.
  const ParallelConfig full = tm.best_config(128);
  ASSERT_EQ(full.instances(), 128);
  expect_matches_reference(objective, model, options, full, 128,
                           {{.predicted = {126, 126, 126}}});
}

// Two configs with hand-picked rates per column (the column's load picks
// the row), over an interval so short that every migration stalls past
// it: an edge is worth exactly F, or F + rate*T for a free stay, and
// every value is an exact integer in units of rate*T.
class RateTableObjective : public SchedulingObjective {
 public:
  RateTableObjective(ParallelConfig a, ParallelConfig b,
                     std::vector<std::pair<double, double>> rates)
      : SchedulingObjective({}), a_(a), b_(b), rates_(std::move(rates)) {}

  std::vector<ParallelConfig> candidates(int /*n*/) const override {
    return {a_, b_};
  }
  double rate(ParallelConfig config, double load) const override {
    const auto& row = rates_.at(static_cast<std::size_t>(load));
    return config == a_ ? row.first : config == b_ ? row.second : 0.0;
  }
  ParallelConfig best_config(int /*n*/, double /*load*/) const override {
    return a_;
  }

 private:
  ParallelConfig a_, b_;
  std::vector<std::pair<double, double>> rates_;
};

TEST(Determinism, PrunedScanTiesMatchNaiveReferenceDp) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const std::vector<ParallelConfig> configs = tm.enumerate_configs(8);
  ASSERT_GE(configs.size(), 2u);
  const ParallelConfig a = configs[0];  // jj 0; b is jj 1, idle jj 2
  const ParallelConfig b = configs[1];
  IntervalDpOptions options;
  options.interval_s = 1.0 / 1024.0;
  options.mc_trials = 16;
  options.seed = 5;
  const double u = 1.0 / options.interval_s;  // a rate earning 1 per interval
  // Rows by load: {rate(a), rate(b)}.
  const RateTableObjective objective(
      a, b, {{u, 0}, {u, 3 * u}, {u, 0}, {2 * u, 3 * u}, {0, 0}});
  // Every migration, resumes included, must stall past the interval.
  const LiveputObjective liveput(&tm);
  IntervalDp probe(&liveput, CostEstimator(model), options);
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a},
                                 std::pair{kIdleConfig, a},
                                 std::pair{kIdleConfig, b}})
    ASSERT_GE(probe.edge_cost(from, 8, to, 0), options.interval_s);
  // Both steps start on a and end with F = {a: 3, b: 3, idle: 3}, so
  // the plan ends on a and its last parent decides the rest.
  //   Step 1: F(1) = {a: 2, b: 3}. Into a, b's edge is worth 3, and a's
  //   free stay has the lower F but reaches 3 too: its bound equals the
  //   best, and it must still be priced and win the tie on jj.
  //   Step 2: F(1) = {a: 3, b: 3}. Into a, a's free stay and b's edge
  //   are both worth 3: the lower jj (a) wins, not the later one.
  // Either way the plan is {a, a, a}; a wrong tie rule yields {b, b, a}.
  const std::vector<DpStep> steps = {
      {.predicted = {8, 8, 8}, .load = {0, 1, 2}},
      {.predicted = {8, 8, 8}, .load = {0, 3, 4}}};
  expect_matches_reference(objective, model, options, a, 8, steps);
}

TEST(Determinism, GoodputOptimizeMatchesNaiveReferenceDp) {
  const ModelProfile model = model_by_name("GPT-2");
  const serve::GoodputObjective objective(model, {}, nullptr, 32);
  const ParallelConfig live = objective.best_config(16, 40.0);
  ASSERT_GT(objective.switch_cost(live, 40.0), 0.0);  // drain is charged
  const std::vector<int> flat(8, 16);
  const std::vector<DpStep> steps = {
      {.predicted = {16, 16, 14, 12, 12, 16, 20, 24},
       .load = {40, 40, 80, 80, 40, 20, 20, 40}},
      {.predicted = {16, 12, 12, 0, 8, 8, 16, 16},
       .load = {40, 60, 60, 60, 30, 30, 30, 30}},
      {.predicted = flat, .load = std::vector<double>(8, 90.0)},
      // The load forecast moves, the availability does not: the columns
      // before the first changed load are reused, the rest re-expand.
      {.predicted = flat,
       .load = {90, 90, 90, 90, 45, 45, 120, 120},
       .hold = true},
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
  const LiveputObjective objective(&tm);
  IntervalDpOptions options;
  options.mc_trials = 128;
  options.seed = 17;
  IntervalDp engine(&objective, CostEstimator(model), options);
  IntervalDp fresh(&objective, CostEstimator(model), options);
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
