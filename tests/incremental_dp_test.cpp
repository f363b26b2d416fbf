// The incremental liveput DP's contract: warm-started column reuse
// must never change a plan. A warm engine and its cold twin (the same
// engine, invalidated before every solve) are bit-identical across
// seeded availability-churn schedules (including the degenerate
// all-changed case) and, as whole scheduler cores, under fault-injection
// chaos; the bounded config-space LRU also matches the naive reference
// DP. states_reused accounting, the batched MC tally, and the
// event-driven scheduler mode are pinned alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/interval_dp.h"
#include "core/objective.h"
#include "core/scheduler_core.h"
#include "migration/preemption.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "trace/spot_trace.h"

#include "dp_oracles.h"

namespace parcae {
namespace {

// A seeded churn schedule: each step perturbs the forecast the way a
// live predictor would — quiet stretches (everything reusable),
// localized edits (one interval re-expanded), preemption cliffs and
// allocation ramps (suffix re-expanded).
std::vector<std::vector<int>> churn_schedule(std::uint64_t seed, int steps,
                                             int lookahead, int max_n) {
  Rng rng(seed);
  std::vector<std::vector<int>> schedule;
  std::vector<int> forecast(static_cast<std::size_t>(lookahead), max_n - 6);
  for (int s = 0; s < steps; ++s) {
    switch (rng.uniform_int(5)) {
      case 0:  // quiet: unchanged forecast
        break;
      case 1: {  // localized edit
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(lookahead)));
        forecast[at] = std::clamp(
            forecast[at] + static_cast<int>(rng.uniform_int(9)) - 4, 0,
            max_n);
        break;
      }
      case 2: {  // preemption cliff
        const int drop = 1 + static_cast<int>(rng.uniform_int(6));
        for (auto& n : forecast) n = std::clamp(n - drop, 0, max_n);
        break;
      }
      case 3: {  // allocation ramp
        const int gain = 1 + static_cast<int>(rng.uniform_int(4));
        for (auto& n : forecast) n = std::clamp(n + gain, 0, max_n);
        break;
      }
      default: {  // volatile: redraw the tail
        const auto from = static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::uint64_t>(lookahead)));
        for (std::size_t i = from; i < forecast.size(); ++i)
          forecast[i] =
              static_cast<int>(rng.uniform_int(
                  static_cast<std::uint64_t>(max_n) + 1));
        break;
      }
    }
    schedule.push_back(forecast);
  }
  return schedule;
}

IntervalDpOptions optimizer_options() {
  IntervalDpOptions options;
  options.interval_s = 60.0;
  options.mc_trials = 64;
  options.seed = 17;
  return options;
}

TEST(IncrementalDp, BitIdenticalPlansAcrossChurnSchedules) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  const auto schedule = churn_schedule(/*seed=*/2024, /*steps=*/30,
                                       /*lookahead=*/8, /*max_n=*/32);
  WarmAndCold dp(&objective, model, optimizer_options());
  ParallelConfig current = tm.best_config(26);
  int n_now = 26;
  for (const auto& forecast : schedule) {
    const std::uint64_t states =
        dp.warm().states_reused() + dp.warm().states_re_expanded();
    const IntervalPlan plan = dp.optimize(current, n_now, forecast);
    // Every DP state is either reused or re-expanded, never both.
    std::size_t total_states = 0;
    for (const int n : forecast)
      total_states += tm.enumerate_configs(n).size() + 1;
    EXPECT_EQ(dp.warm().states_reused() + dp.warm().states_re_expanded() -
                  states,
              total_states);
    // Drive the schedule like a scheduler would: follow the plan.
    current = plan.next();
    n_now = forecast.front();
  }
  dp.expect_same_draws();
  // The whole point: quiet/localized steps actually reuse columns.
  EXPECT_GT(dp.warm().states_reused(), 0u);
  EXPECT_EQ(dp.cold().states_reused(), 0u);
}

TEST(IncrementalDp, DegenerateAllChangedScheduleReusesNothing) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  WarmAndCold dp(&objective, model, optimizer_options());
  const ParallelConfig current = tm.best_config(24);
  // Disjoint N sets per step: every column's direct inputs change.
  const std::vector<std::vector<int>> schedule = {
      {24, 23, 22, 21}, {12, 11, 10, 9}, {30, 29, 28, 27}, {5, 4, 3, 2}};
  for (const auto& forecast : schedule) dp.optimize(current, 24, forecast);
  dp.expect_same_draws();
  EXPECT_EQ(dp.warm().states_reused(), 0u);
  EXPECT_GT(dp.warm().states_re_expanded(), 0u);
}

TEST(IncrementalDp, StatesReusedAccountingIsPinned) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  IntervalDp optimizer(&objective, CostEstimator(model), optimizer_options());
  const ParallelConfig current = tm.best_config(24);
  const std::uint64_t s24 = tm.enumerate_configs(24).size() + 1;
  const std::uint64_t s20 = tm.enumerate_configs(20).size() + 1;
  // One solve's DP states {reused, re-expanded}: deltas of the
  // cumulative counters.
  const auto solve = [&](const std::vector<int>& forecast) {
    const std::uint64_t reused = optimizer.states_reused();
    const std::uint64_t re_expanded = optimizer.states_re_expanded();
    optimizer.optimize(current, 24, forecast);
    return std::pair{optimizer.states_reused() - reused,
                     optimizer.states_re_expanded() - re_expanded};
  };
  using Delta = std::pair<std::uint64_t, std::uint64_t>;

  // Cold solve: everything re-expanded.
  EXPECT_EQ(solve({24, 24, 24, 24}), (Delta{0, 4 * s24}));
  // Identical inputs: everything reused.
  EXPECT_EQ(solve({24, 24, 24, 24}), (Delta{4 * s24, 0}));
  // Tail-only change: the prefix is reused verbatim, only the last
  // column (whose direct input predicted[3] changed) re-expands.
  EXPECT_EQ(solve({24, 24, 24, 20}), (Delta{3 * s24, s20}));
  // invalidate() drops the warm table: the next solve is cold again.
  optimizer.invalidate();
  EXPECT_EQ(solve({24, 24, 24, 20}), (Delta{0, 3 * s24 + s20}));
}

TEST(IncrementalDp, SpaceCacheLruIsBoundedAndPlansUnchanged) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const LiveputObjective objective(&tm);
  const IntervalDpOptions options = optimizer_options();
  WarmAndCold dp(&objective, model, options);
  obs::MetricsRegistry reference_metrics;
  ReferenceDp reference(&objective, model, options, &reference_metrics);
  // A window with more distinct N than the LRU holds: resolving it
  // evicts its own first spaces while the solve is in flight, and every
  // later solve of it misses on every N (the LRU cycles). So the
  // repeated solve reuses every column over rebuilt spaces, and the
  // tail edit reuses all but the last.
  constexpr std::size_t kDistinct = IntervalDp::kSpaceCacheCapacity + 8;
  std::vector<int> window;
  for (std::size_t i = 0; i < kDistinct; ++i)
    window.push_back(1 + static_cast<int>((i * 37) % kDistinct));
  std::vector<std::vector<int>> schedule = {window, window};
  --window.back();
  schedule.push_back(window);

  const ParallelConfig current = tm.best_config(24);
  for (std::size_t s = 0; s < schedule.size(); ++s) {
    const IntervalPlan got = dp.optimize(current, 24, schedule[s]);
    const IntervalPlan want = reference.optimize(current, 24, schedule[s], {});
    EXPECT_EQ(got.configs, want.configs) << "step " << s;
    EXPECT_EQ(got.expected_value, want.expected_value) << "step " << s;
    EXPECT_LE(dp.warm().space_cache_size(), IntervalDp::kSpaceCacheCapacity);
  }
  dp.expect_same_draws();
  EXPECT_EQ(dp.warm_metrics().counter_value("mc_sampler.samples"),
            reference_metrics.counter_value("mc_sampler.samples"));
  // The repeated solve reused every state, the tail edit all but the
  // last column's.
  std::uint64_t states = 0;
  for (const int n : schedule[0]) states += tm.enumerate_configs(n).size() + 1;
  const int last_n = schedule[0].back();
  EXPECT_EQ(dp.warm().states_reused(),
            2 * states - (tm.enumerate_configs(last_n).size() + 1));
  EXPECT_EQ(dp.cold().states_reused(), 0u);
  EXPECT_GT(dp.warm().space_cache_evictions(), 0u);
  EXPECT_EQ(dp.warm_metrics().counter_value("liveput_dp.space_cache_evictions"),
            static_cast<double>(dp.warm().space_cache_evictions()));
}

TEST(IncrementalDp, BatchedMcTallyMatchesPerTrialAccumulation) {
  // The histogram-based batched tally must reproduce the per-trial
  // double accumulation bit-for-bit (all statistics are exact integer
  // sums divided by identical divisors).
  for (const auto& [dp, pp, idle, k] :
       std::vector<std::tuple<int, int, int, int>>{
           {4, 4, 0, 3}, {2, 8, 3, 5}, {7, 3, 1, 9}, {1, 12, 0, 1}}) {
    const ParallelConfig config{dp, pp};
    const int trials = 128;
    PreemptionSampler sampler(/*seed=*/99, trials);
    const PreemptionSummary& batched = sampler.summarize(config, idle, k);

    // Legacy reference: same seed, same draw sequence, per-trial sums.
    Rng rng(99);
    std::vector<double> intra(static_cast<std::size_t>(dp) + 1, 0.0);
    std::vector<double> alive_prob(static_cast<std::size_t>(dp) + 1, 0.0);
    double wipeout = 0.0;
    PreemptionDraw draw;
    PreemptionScratch scratch;
    for (int t = 0; t < trials; ++t) {
      sample_preemption(config, idle, k, rng, draw, scratch);
      intra[static_cast<std::size_t>(draw.min_alive_stage)] += 1.0;
      if (draw.min_alive_stage == 0) wipeout += 1.0;
      for (int a : draw.alive_per_stage)
        alive_prob[static_cast<std::size_t>(a)] += 1.0;
    }
    const auto n = static_cast<double>(trials);
    for (auto& p : intra) p /= n;
    for (auto& p : alive_prob) p /= n * static_cast<double>(pp);
    wipeout /= n;

    ASSERT_EQ(batched.intra_pipelines_prob.size(), intra.size());
    for (std::size_t d = 0; d < intra.size(); ++d) {
      EXPECT_EQ(batched.intra_pipelines_prob[d], intra[d]) << d;
      EXPECT_EQ(batched.stage_alive_prob[d], alive_prob[d]) << d;
    }
    EXPECT_EQ(batched.stage_wipeout_prob, wipeout);
  }
}

TEST(IncrementalDp, ChaosChurnUnderFaultInjectionStaysBitExact) {
  // Two cores step over the same observation stream: the trace's
  // availability under unpredicted-preemption chaos (the simulator's
  // PARCAE_FAULTS point "sim.unpredicted_preempt": one instance beyond
  // the trace disappears at a boundary). The twin's DP drops its warm
  // state before every step, so it always solves cold; the warm core
  // must decide exactly what the twin decides, decision by decision.
  const std::vector<int> series =
      canonical_segment(TraceSegment::kLowAvailSparse).availability_series();
  SchedulerCoreOptions options;
  options.lookahead = 8;
  options.history = 8;
  options.mc_trials = 32;
  options.seed = 7;
  SchedulerCore warm(gpt2_profile(), options,
                     static_cast<const SpotTrace*>(nullptr));
  SchedulerCore cold(gpt2_profile(), options,
                     static_cast<const SpotTrace*>(nullptr));
  FaultInjector faults(0xfa017);
  FaultTrigger trigger;
  trigger.probability = 0.3;
  faults.arm("sim.unpredicted_preempt", trigger);
  int prev_available = 0;
  int unpredicted = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const int interval = static_cast<int>(i);
    int available = series[i];
    faults.set_interval(interval);
    if (available > 0 && faults.should_fire("sim.unpredicted_preempt")) {
      --available;
      ++unpredicted;
    }
    const AvailabilityObservation observed{
        available, std::max(0, prev_available - available),
        std::max(0, available - prev_available)};
    prev_available = available;
    const SchedulerDecision a = warm.step(interval, observed, 60.0);
    cold.optimizer().invalidate();
    const SchedulerDecision b = cold.step(interval, observed, 60.0);
    EXPECT_EQ(a.config, b.config) << "interval " << i;
    EXPECT_EQ(a.planned_next, b.planned_next) << "interval " << i;
    EXPECT_EQ(a.stall_s, b.stall_s) << "interval " << i;
  }
  EXPECT_GT(unpredicted, 0);
  EXPECT_EQ(warm.metrics().counter_value("mc_sampler.samples"),
            cold.metrics().counter_value("mc_sampler.samples"));
  EXPECT_GT(warm.optimizer().states_reused(), 0u);
  EXPECT_EQ(cold.optimizer().states_reused(), 0u);
}

TEST(EventDrivenScheduler, ReoptimizesOnBootstrapAndEventsOnly) {
  SchedulerCoreOptions options;
  options.mode = PredictionMode::kProactive;
  options.lookahead = 6;
  options.history = 6;
  options.mc_trials = 16;
  options.seed = 11;
  options.event_driven = true;
  options.debounce_ms = 250.0;
  SchedulerCore core(gpt2_profile(), options,
                     static_cast<const SpotTrace*>(nullptr));

  auto reoptimizations = [&core]() {
    return core.metrics().counter_value("scheduler.reoptimizations");
  };
  // Interval 0 bootstraps a plan even with no event pending.
  core.step(0, {24, 0, 0}, 60.0);
  EXPECT_EQ(reoptimizations(), 1.0);
  // Quiet intervals: the previous plan stands, no re-solve.
  for (int i = 1; i <= 4; ++i) core.step(i, {24, 0, 0}, 60.0);
  EXPECT_EQ(reoptimizations(), 1.0);
  // A preemption at the boundary synthesizes an event and re-solves.
  core.step(5, {20, 4, 0}, 60.0);
  EXPECT_EQ(reoptimizations(), 2.0);
  EXPECT_EQ(core.metrics().counter_value("scheduler.event_reoptimizations"),
            1.0);
  EXPECT_EQ(core.pending_events(), 0);
  // The reaction latency histogram saw that re-solve.
  const obs::MetricsSnapshot snapshot = core.metrics_snapshot();
  ASSERT_TRUE(snapshot.histograms.count("scheduler.event_latency.ms"));
  EXPECT_GT(snapshot.histograms.at("scheduler.event_latency.ms").count, 0u);
}

TEST(EventDrivenScheduler, NotifyEventDebouncesAndDrains) {
  SchedulerCoreOptions options;
  options.mode = PredictionMode::kProactive;
  options.lookahead = 4;
  options.history = 4;
  options.mc_trials = 16;
  options.seed = 3;
  options.event_driven = true;
  options.debounce_ms = 250.0;
  SchedulerCore core(gpt2_profile(), options,
                     static_cast<const SpotTrace*>(nullptr));

  core.notify_event("preemption-notice", 100.0);
  core.notify_event("lease-expiry", 100.1);  // within 250 ms: coalesced
  core.notify_event("allocation", 160.0);    // far outside: fresh event
  EXPECT_EQ(core.pending_events(), 3);
  EXPECT_EQ(core.metrics().counter_value("scheduler.events_enqueued"), 3.0);
  EXPECT_EQ(core.metrics().counter_value("scheduler.events_coalesced"), 1.0);
  // The next step drains the queue with a single re-solve.
  core.step(0, {24, 0, 0}, 60.0);
  EXPECT_EQ(core.pending_events(), 0);
  EXPECT_EQ(core.metrics().counter_value("scheduler.reoptimizations"), 1.0);
}

TEST(EventDrivenScheduler, NotifyEventIsNoOpOnTickScheduling) {
  SchedulerCoreOptions options;
  options.mode = PredictionMode::kProactive;
  options.lookahead = 4;
  options.history = 4;
  options.mc_trials = 16;
  SchedulerCore core(gpt2_profile(), options,
                     static_cast<const SpotTrace*>(nullptr));
  core.notify_event("preemption-notice", 0.0);
  EXPECT_EQ(core.pending_events(), 0);
  EXPECT_EQ(core.metrics().counter_value("scheduler.events_enqueued"), 0.0);
}

}  // namespace
}  // namespace parcae
