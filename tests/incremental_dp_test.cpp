// The incremental liveput DP's contract: warm-started column reuse
// must never change a plan. Incremental and full re-solves are
// bit-identical across seeded availability-churn schedules (including
// the degenerate all-changed case) and under fault-injection chaos;
// states_reused accounting, the bounded config-space LRU, the batched
// MC tally, and the event-driven scheduler mode are pinned alongside.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "core/liveput_optimizer.h"
#include "core/scheduler_core.h"
#include "migration/preemption.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

void expect_plans_equal(const LiveputPlan& a, const LiveputPlan& b,
                        const char* what) {
  ASSERT_EQ(a.configs.size(), b.configs.size()) << what;
  for (std::size_t i = 0; i < a.configs.size(); ++i)
    EXPECT_EQ(a.configs[i], b.configs[i]) << what << " interval " << i;
  // Bit-identical, not approximately equal.
  EXPECT_EQ(a.expected_value, b.expected_value) << what;
}

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

LiveputOptimizerOptions optimizer_options(bool full_resolve, bool verify) {
  LiveputOptimizerOptions options;
  options.interval_s = 60.0;
  options.mc_trials = 64;
  options.seed = 17;
  options.full_resolve = full_resolve;
  options.verify_incremental = verify;
  return options;
}

TEST(IncrementalDp, BitIdenticalPlansAcrossChurnSchedules) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  const auto schedule = churn_schedule(/*seed=*/2024, /*steps=*/30,
                                       /*lookahead=*/8, /*max_n=*/32);
  LiveputOptimizer full(&tm, CostEstimator(model),
                        optimizer_options(/*full_resolve=*/true,
                                          /*verify=*/false));
  // verify_incremental doubles as an in-process cross-check: any
  // reused column that diverges from a scratch full re-solve aborts.
  LiveputOptimizer incremental(
      &tm, CostEstimator(model),
      optimizer_options(/*full_resolve=*/false, /*verify=*/true));
  ParallelConfig current = tm.best_config(26);
  int n_now = 26;
  for (const auto& forecast : schedule) {
    const LiveputPlan a = full.optimize(current, n_now, forecast);
    const LiveputPlan b = incremental.optimize(current, n_now, forecast);
    expect_plans_equal(a, b, "incremental vs full");
    // Every DP state is either reused or re-expanded, never both.
    std::size_t total_states = 0;
    for (const int n : forecast)
      total_states += tm.enumerate_configs(n).size() + 1;
    EXPECT_EQ(incremental.last_states_reused() +
                  incremental.last_states_re_expanded(),
              total_states);
    // Drive the schedule like a scheduler would: follow the plan.
    current = a.next();
    n_now = forecast.front();
  }
  // The whole point: quiet/localized steps actually reuse columns.
  EXPECT_GT(incremental.states_reused(), 0u);
  EXPECT_EQ(full.states_reused(), 0u);
}

TEST(IncrementalDp, DegenerateAllChangedScheduleReusesNothing) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  LiveputOptimizer full(&tm, CostEstimator(model),
                        optimizer_options(true, false));
  LiveputOptimizer incremental(&tm, CostEstimator(model),
                               optimizer_options(false, true));
  const ParallelConfig current = tm.best_config(24);
  // Disjoint N sets per step: every column's direct inputs change.
  const std::vector<std::vector<int>> schedule = {
      {24, 23, 22, 21}, {12, 11, 10, 9}, {30, 29, 28, 27}, {5, 4, 3, 2}};
  for (const auto& forecast : schedule) {
    const LiveputPlan a = full.optimize(current, 24, forecast);
    const LiveputPlan b = incremental.optimize(current, 24, forecast);
    expect_plans_equal(a, b, "all-changed");
  }
  EXPECT_EQ(incremental.states_reused(), 0u);
  EXPECT_GT(incremental.states_re_expanded(), 0u);
}

TEST(IncrementalDp, StatesReusedAccountingIsPinned) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  LiveputOptimizer optimizer(&tm, CostEstimator(model),
                             optimizer_options(false, true));
  const ParallelConfig current = tm.best_config(24);
  const std::size_t s24 = tm.enumerate_configs(24).size() + 1;
  const std::size_t s20 = tm.enumerate_configs(20).size() + 1;

  // Cold solve: everything re-expanded.
  optimizer.optimize(current, 24, {24, 24, 24, 24});
  EXPECT_EQ(optimizer.last_states_reused(), 0u);
  EXPECT_EQ(optimizer.last_states_re_expanded(), 4 * s24);

  // Identical inputs: everything reused.
  optimizer.optimize(current, 24, {24, 24, 24, 24});
  EXPECT_EQ(optimizer.last_states_reused(), 4 * s24);
  EXPECT_EQ(optimizer.last_states_re_expanded(), 0u);

  // Tail-only change: the prefix is reused verbatim, only the last
  // column (whose direct input predicted[3] changed) re-expands.
  optimizer.optimize(current, 24, {24, 24, 24, 20});
  EXPECT_EQ(optimizer.last_states_reused(), 3 * s24);
  EXPECT_EQ(optimizer.last_states_re_expanded(), s20);

  // invalidate() drops the warm table: the next solve is cold again.
  optimizer.invalidate();
  optimizer.optimize(current, 24, {24, 24, 24, 20});
  EXPECT_EQ(optimizer.last_states_reused(), 0u);
  EXPECT_EQ(optimizer.last_states_re_expanded(), 3 * s24 + s20);
}

TEST(IncrementalDp, FullResolveEscapeHatchNeverReuses) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  LiveputOptimizer optimizer(&tm, CostEstimator(model),
                             optimizer_options(true, false));
  const ParallelConfig current = tm.best_config(24);
  for (int i = 0; i < 3; ++i) {
    optimizer.optimize(current, 24, {24, 24, 24, 24});
    EXPECT_EQ(optimizer.last_states_reused(), 0u);
  }
}

TEST(IncrementalDp, SpaceCacheLruIsBoundedAndPlansUnchanged) {
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  LiveputOptimizerOptions bounded = optimizer_options(false, true);
  bounded.space_cache_capacity = 2;
  obs::MetricsRegistry registry;
  bounded.metrics = &registry;
  LiveputOptimizer small(&tm, CostEstimator(model), bounded);
  LiveputOptimizer large(&tm, CostEstimator(model),
                         optimizer_options(false, true));
  const ParallelConfig current = tm.best_config(20);
  // Churn through many distinct N so the 2-entry LRU must evict while
  // solves are in flight (shared_ptr spaces keep reused columns safe).
  for (int base : {8, 12, 16, 20, 24, 28, 8, 20}) {
    const std::vector<int> forecast = {base, base + 1, base + 2, base + 3};
    const LiveputPlan a = small.optimize(current, 20, forecast);
    const LiveputPlan b = large.optimize(current, 20, forecast);
    expect_plans_equal(a, b, "bounded vs unbounded space cache");
    EXPECT_LE(small.space_cache_size(), 2u);
  }
  EXPECT_GT(small.space_cache_evictions(), 0u);
  EXPECT_EQ(large.space_cache_evictions(), 0u);
  EXPECT_EQ(registry.counter_value("liveput_dp.space_cache_evictions"),
            static_cast<double>(small.space_cache_evictions()));
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
  // Full end-to-end churn under unpredicted-preemption chaos (the
  // PARCAE_FAULTS point "sim.unpredicted_preempt"): the incremental
  // core, running with the verify-both-paths pin armed, must commit
  // exactly what the full-resolve core commits.
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  auto run = [&](bool full_resolve) {
    ParcaePolicyOptions popt;
    popt.lookahead = 8;
    popt.history = 8;
    popt.mc_trials = 32;
    popt.seed = 7;
    popt.optimizer_full_resolve = full_resolve;
    popt.optimizer_verify_incremental = !full_resolve;
    ParcaePolicy policy(gpt2_profile(), popt, &trace);
    FaultInjector faults(0xfa017);
    FaultTrigger trigger;
    trigger.probability = 0.3;
    faults.arm("sim.unpredicted_preempt", trigger);
    SimulationOptions sim;
    sim.record_timeline = false;
    sim.faults = &faults;
    return simulate(policy, trace, sim);
  };
  const SimulationResult full = run(true);
  const SimulationResult incremental = run(false);
  EXPECT_EQ(full.committed_units, incremental.committed_units);
  EXPECT_EQ(full.total_cost_usd, incremental.total_cost_usd);
  EXPECT_EQ(full.gpu_hours.lost, incremental.gpu_hours.lost);
}

TEST(EventDrivenScheduler, ReoptimizesOnBootstrapAndEventsOnly) {
  SchedulerCoreOptions options;
  options.mode = PredictionMode::kArima;
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
  options.mode = PredictionMode::kArima;
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
  options.mode = PredictionMode::kArima;
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
