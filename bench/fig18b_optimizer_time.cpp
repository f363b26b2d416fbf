// Regenerates Figure 18b: wall-clock time of one liveput optimization
// (look-ahead 12, GPT-2) on each trace segment, measured with
// google-benchmark. The paper reports < 0.3 s per run — fast enough
// to re-optimize every minute.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "core/interval_dp.h"
#include "core/objective.h"
#include "migration/cost_model.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

void optimize_on_segment(benchmark::State& state, TraceSegment segment) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  obs::MetricsRegistry registry;
  IntervalDp optimizer(&objective, CostEstimator(model),
                       IntervalDpOptions{.interval_s = 60.0,
                                         .mc_trials = 256,
                                         .seed = 17,
                                         .metrics = &registry});
  const SpotTrace trace = canonical_segment(segment);
  const std::vector<int> series = trace.availability_series();
  const ParallelConfig current = tm.best_config(series.front());

  // Rotate the forecast origin so the cache is exercised realistically
  // (the scheduler re-optimizes every interval with fresh forecasts).
  std::size_t origin = 0;
  for (auto _ : state) {
    std::vector<int> predicted;
    for (int h = 1; h <= 12; ++h)
      predicted.push_back(
          series[(origin + static_cast<std::size_t>(h)) % series.size()]);
    origin = (origin + 1) % series.size();
    const IntervalPlan plan =
        optimizer.optimize(current, series[origin], predicted);
    benchmark::DoNotOptimize(plan.expected_value);
  }
  state.SetLabel("paper: < 0.3 s per optimization (Figure 18b)");
  // How much of the optimizer's work the caches absorbed.
  state.counters["dp_runs"] = registry.counter_value("liveput_dp.runs");
  state.counters["mc_samples"] =
      registry.counter_value("mc_sampler.samples");
  state.counters["mc_cache_hits"] =
      registry.counter_value("mc_sampler.cache_hits");
}

void BM_LiveputOptimize_HA_DP(benchmark::State& state) {
  optimize_on_segment(state, TraceSegment::kHighAvailDense);
}
void BM_LiveputOptimize_HA_SP(benchmark::State& state) {
  optimize_on_segment(state, TraceSegment::kHighAvailSparse);
}
void BM_LiveputOptimize_LA_DP(benchmark::State& state) {
  optimize_on_segment(state, TraceSegment::kLowAvailDense);
}
void BM_LiveputOptimize_LA_SP(benchmark::State& state) {
  optimize_on_segment(state, TraceSegment::kLowAvailSparse);
}

BENCHMARK(BM_LiveputOptimize_HA_DP)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_HA_SP)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_LA_DP)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_LA_SP)->Unit(benchmark::kMillisecond);

// Scale cases (256- and 1024-instance pools, the ROADMAP's fleet
// sizes): full re-solve vs. the warm-started incremental DP. Both
// variants run the identical workload — a steady forecast with one
// change per iteration — so the ratio isolates what warm-starting
// buys. `Full` calls invalidate() before every solve (every column
// re-expanded every solve); `WarmOneChange` is the warm start (only
// the columns the change invalidates re-expand). `Incr` runs a
// churnier workload: the edit lands mid-window, so the whole suffix
// (half the columns) re-expands every solve.
//
// The 1.5x regression gate in bench/run_benches.sh is stricter on the
// *_Incr / *_WarmOneChange cases (they are the event-mode reaction
// path); the acceptance pin is WarmOneChange >= 3x faster than Full
// at N = 256.
void optimize_at_scale(benchmark::State& state, int n, int lookahead,
                       int mc_trials, bool cold, bool churn) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  obs::MetricsRegistry registry;
  IntervalDpOptions options;
  options.interval_s = 60.0;
  options.mc_trials = mc_trials;
  options.seed = 17;
  options.metrics = &registry;
  IntervalDp optimizer(&objective, CostEstimator(model), options);
  const ParallelConfig current = tm.best_config(n);
  std::vector<int> predicted(static_cast<std::size_t>(lookahead), n);

  // Untimed cold solve: the timed loop measures steady-state
  // re-optimization (the scheduler's per-interval / per-event cost),
  // not first-run enumeration + MC sampling.
  optimizer.optimize(current, n, predicted);

  // Each timed iteration edits exactly one fixed position (the value
  // alternates), so every iteration re-expands the same columns and
  // the per-iteration cost is stationary — the regression gate would
  // otherwise compare different workload mixes across machines.
  const std::size_t at = churn ? predicted.size() / 2 : predicted.size() - 1;
  for (auto _ : state) {
    predicted[at] = predicted[at] == n ? n - 1 : n;
    if (cold) optimizer.invalidate();
    const IntervalPlan plan = optimizer.optimize(current, n, predicted);
    benchmark::DoNotOptimize(plan.expected_value);
  }
  state.counters["configs"] =
      static_cast<double>(tm.enumerate_configs(n).size());
  state.counters["states_reused"] =
      registry.counter_value("liveput_dp.states_reused");
  state.counters["states_re_expanded"] =
      registry.counter_value("liveput_dp.states_re_expanded");
  state.counters["mc_samples"] =
      registry.counter_value("mc_sampler.samples");
  state.counters["mc_cache_hits"] =
      registry.counter_value("mc_sampler.cache_hits");
}

void BM_LiveputOptimize_N256_Full(benchmark::State& state) {
  optimize_at_scale(state, 256, 12, 64, /*cold=*/true, /*churn=*/false);
}
void BM_LiveputOptimize_N256_WarmOneChange(benchmark::State& state) {
  optimize_at_scale(state, 256, 12, 64, /*cold=*/false, /*churn=*/false);
}
void BM_LiveputOptimize_N256_Incr(benchmark::State& state) {
  optimize_at_scale(state, 256, 12, 64, /*cold=*/false, /*churn=*/true);
}
void BM_LiveputOptimize_N1024_Full(benchmark::State& state) {
  optimize_at_scale(state, 1024, 6, 32, /*cold=*/true, /*churn=*/false);
}
void BM_LiveputOptimize_N1024_WarmOneChange(benchmark::State& state) {
  optimize_at_scale(state, 1024, 6, 32, /*cold=*/false, /*churn=*/false);
}
void BM_LiveputOptimize_N1024_Incr(benchmark::State& state) {
  optimize_at_scale(state, 1024, 6, 32, /*cold=*/false, /*churn=*/true);
}
BENCHMARK(BM_LiveputOptimize_N256_Full)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_N256_WarmOneChange)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_N256_Incr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_N1024_Full)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_N1024_WarmOneChange)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiveputOptimize_N1024_Incr)->Unit(benchmark::kMillisecond);

// The reaction in which the pruned scan's bound is loosest: the live
// config (64x16) fills the 1024-instance pool, and the forecast loses
// 2 instances, so it no longer fits. Every edge out of it is a real
// migration, and column 0's values collapse into a few distinct
// values, so each candidate's walk stops late. Each iteration times
// one solve on a fresh optimizer; its warm solve at N (which caches
// N's config spaces and summaries) and its teardown are untimed.
// edges_priced counts the timed solve's edges.
void BM_LiveputOptimize_N1024_React(benchmark::State& state) {
  constexpr int kN = 1024;
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const ParallelConfig live = tm.best_config(kN);
  const std::vector<int> steady(12, kN);
  const std::vector<int> lost_two(12, kN - 2);
  const LiveputObjective objective(&tm);
  IntervalDpOptions options;
  options.mc_trials = 32;
  options.seed = 17;
  std::optional<IntervalDp> optimizer;
  double edges_priced = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    optimizer.emplace(&objective, CostEstimator(model), options);
    optimizer->optimize(live, kN, steady);
    const std::uint64_t warm_edges = optimizer->edges_priced();
    state.ResumeTiming();
    const IntervalPlan plan = optimizer->optimize(live, kN, lost_two);
    benchmark::DoNotOptimize(plan.expected_value);
    edges_priced +=
        static_cast<double>(optimizer->edges_priced() - warm_edges);
  }
  state.counters["live_instances"] = live.instances();
  state.counters["edges_priced"] =
      benchmark::Counter(edges_priced, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LiveputOptimize_N1024_React)->Unit(benchmark::kMillisecond);

// The whole-policy decision step (predict + optimize + plan) must also
// stay far below the 60 s interval.
void BM_FullSchedulerStep(benchmark::State& state) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  IntervalDp optimizer(
      &objective, CostEstimator(model),
      IntervalDpOptions{.interval_s = 60.0, .mc_trials = 256, .seed = 17});
  const std::vector<int> predicted(12, 26);
  // Alternate the observed availability so every step re-expands at
  // least the first DP column (static inputs would reuse everything
  // and measure nothing). The suffix still converges and is reused —
  // this is the honest steady-state cost of a quiet interval under
  // the warm-started DP, a microsecond or less rather than the tens of
  // microseconds a cold solve at N = 27 costs.
  int n_now = 27;
  for (auto _ : state) {
    n_now = n_now == 27 ? 26 : 27;
    const ParallelConfig next = optimizer.advise({3, 9}, n_now, predicted);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_FullSchedulerStep)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parcae

BENCHMARK_MAIN();
