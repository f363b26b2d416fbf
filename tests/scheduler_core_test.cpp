// SchedulerCore: the single decision engine (Algorithm 1) behind both
// executor backends. The headline test here is the sim-vs-real
// equivalence: ParcaePolicy (interval simulator) and SpotTrainingDriver
// (real in-process cluster) driving the same core with the same options
// over the same availability must advise the identical configuration
// sequence. Plus golden freezes of the Figure 9a / Figure 13 numbers
// the refactor must not move.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/bamboo_policy.h"
#include "baselines/varuna_policy.h"
#include "core/scheduler_core.h"
#include "model/model_profile.h"
#include "nn/dataset.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

// ---------------------------------------------------------------------------
// Sim-vs-real equivalence.

TEST(SchedulerCore, SimulatorAndDriverAdviseIdenticalConfigs) {
  // The real driver over a minute-aligned trace (requested >= capacity,
  // so the cloud grants exactly the trace's availability) ...
  const auto ds = nn::make_blobs(256, 12, 4, 0.5, 99);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 24, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  const SpotTrace trace = SpotTrace::from_minute_series(
      "equiv", {4, 6, 6, 5, 3, 4, 6, 8, 2, 4, 5, 6, 6, 7, 3, 5}, 8);

  SpotDriverOptions driver_options;
  driver_options.requested_instances = 8;
  driver_options.iterations_per_interval = 1;
  SpotTrainingDriver driver(cluster, &ds, driver_options);
  const SpotDriverReport report = driver.run(trace);
  ASSERT_EQ(report.advised.size(), 16u);
  // The decision core's audit trail reaches the report (real-cluster
  // runs are as auditable as simulated ones).
  EXPECT_FALSE(report.telemetry.events().empty());

  // ... and ParcaePolicy over the same trace, fed the very options and
  // model profile the driver resolved (including its depth bounds).
  ParcaePolicyOptions policy_options;
  static_cast<SchedulerCoreOptions&>(policy_options) =
      driver.scheduler().options();
  ParcaePolicy policy(driver.profile(), policy_options);
  SimulationOptions sim;
  sim.interval_s = driver_options.interval_s;
  const SimulationResult result = simulate(policy, trace, sim);

  ASSERT_EQ(result.timeline.size(), report.advised.size());
  for (std::size_t i = 0; i < report.advised.size(); ++i) {
    EXPECT_EQ(result.timeline[i].config, report.advised[i])
        << "interval " << i << ": simulator advised "
        << result.timeline[i].config.to_string() << ", driver advised "
        << report.advised[i].to_string();
  }
}

// ---------------------------------------------------------------------------
// Core decision behaviours.

SchedulerCoreOptions small_options() {
  SchedulerCoreOptions options;
  options.max_instances = 16;
  options.mc_trials = 32;
  return options;
}

TEST(SchedulerCore, ResetReplaysTheIdenticalDecisionSequence) {
  SchedulerCore core(gpt2_profile(), small_options());
  const std::vector<AvailabilityObservation> observations = {
      {14, 0, 14}, {14, 0, 0}, {10, 4, 0}, {12, 0, 2},
      {12, 0, 0},  {7, 5, 0},  {9, 0, 2},  {16, 0, 7},
  };
  std::vector<ParallelConfig> first;
  for (std::size_t i = 0; i < observations.size(); ++i)
    first.push_back(
        core.step(static_cast<int>(i), observations[i], 60.0).config);
  core.reset();
  EXPECT_TRUE(core.migration_log().empty());
  EXPECT_TRUE(core.telemetry().events().empty());
  for (std::size_t i = 0; i < observations.size(); ++i)
    EXPECT_EQ(core.step(static_cast<int>(i), observations[i], 60.0).config,
              first[i])
        << "interval " << i;
}

TEST(SchedulerCore, ReactiveModeNeverForecasts) {
  SchedulerCoreOptions options = small_options();
  options.mode = PredictionMode::kReactive;
  SchedulerCore core(gpt2_profile(), options);
  for (int i = 0; i < 6; ++i) {
    const SchedulerDecision d = core.step(i, {12, 0, i == 0 ? 12 : 0}, 60.0);
    EXPECT_TRUE(d.forecast.empty()) << "interval " << i;
    EXPECT_FALSE(d.planned_next.valid()) << "interval " << i;
    EXPECT_TRUE(d.config.valid()) << "interval " << i;
  }
}

TEST(SchedulerCore, StaticModeHoldsItsTargetWithoutForecasting) {
  // Fixed provisioning: the target never moves and is only adapted to
  // what survives; nothing is forecast and the DP never runs.
  SchedulerCoreOptions options = small_options();
  options.mode = PredictionMode::kStatic;
  options.static_config = {1, 8};
  SchedulerCore core(gpt2_profile(), options);
  const std::vector<AvailabilityObservation> observations = {
      {8, 0, 8}, {8, 0, 0}, {6, 2, 0}, {8, 0, 2}};
  for (std::size_t i = 0; i < observations.size(); ++i) {
    const SchedulerDecision d =
        core.step(static_cast<int>(i), observations[i], 60.0);
    if (i < 2) {
      EXPECT_EQ(d.config, (ParallelConfig{1, 8})) << "interval " << i;
    }
    EXPECT_LE(d.config.instances(), observations[i].available);
    EXPECT_TRUE(d.forecast.empty()) << "interval " << i;
    EXPECT_FALSE(d.planned_next.valid()) << "interval " << i;
  }
  EXPECT_EQ(core.metrics().counter_value("scheduler.reoptimizations"), 0.0);
}

TEST(SchedulerCore, ReoptimizeEveryThrottlesTheOptimizer) {
  SchedulerCoreOptions options = small_options();
  options.reoptimize_every = 4;  // Figure 11's lower prediction rates
  SchedulerCore core(gpt2_profile(), options);
  for (int i = 0; i < 9; ++i) {
    const SchedulerDecision d = core.step(i, {12, 0, i == 0 ? 12 : 0}, 60.0);
    if (i % 4 == 0)
      EXPECT_EQ(d.forecast.size(), static_cast<std::size_t>(options.lookahead))
          << "interval " << i;
    else
      EXPECT_TRUE(d.forecast.empty()) << "interval " << i;
  }
}

TEST(SchedulerCore, OracleModeReadsTheTrueFuture) {
  const SpotTrace trace = SpotTrace::from_minute_series(
      "oracle", {12, 12, 10, 8, 14, 14, 9, 12, 12, 12}, 16);
  SchedulerCoreOptions options = small_options();
  options.mode = PredictionMode::kOracle;
  options.lookahead = 4;
  SchedulerCore core(gpt2_profile(), options, &trace);
  const std::vector<int> series = trace.availability_series(60.0);
  int prev = 0;
  for (int i = 0; i < 6; ++i) {
    const int a = series[static_cast<std::size_t>(i)];
    const AvailabilityObservation observed{a, std::max(0, prev - a),
                                           std::max(0, a - prev)};
    prev = a;
    const SchedulerDecision d = core.step(i, observed, 60.0);
    ASSERT_EQ(d.forecast.size(), 4u);
    for (int h = 1; h <= 4; ++h) {
      const std::size_t idx = std::min(series.size() - 1,
                                       static_cast<std::size_t>(i + h));
      EXPECT_EQ(d.forecast[static_cast<std::size_t>(h - 1)], series[idx])
          << "interval " << i << " horizon " << h;
    }
  }
}

TEST(SchedulerCore, OracleMayDieAfterConstruction) {
  // The core copies the oracle's series when it is built, so the trace
  // may be destroyed before the first step.
  const std::vector<int> series{12, 12, 10, 8, 14, 14, 9, 12, 12, 12};
  SchedulerCoreOptions options = small_options();
  options.mode = PredictionMode::kOracle;
  options.lookahead = 4;
  auto trace = std::make_unique<SpotTrace>(
      SpotTrace::from_minute_series("oracle", series, 16));
  SchedulerCore core(gpt2_profile(), options, trace.get());
  trace.reset();
  int prev = 0;
  for (int i = 0; i < 6; ++i) {
    const int a = series[static_cast<std::size_t>(i)];
    const AvailabilityObservation observed{a, std::max(0, prev - a),
                                           std::max(0, a - prev)};
    prev = a;
    const SchedulerDecision d = core.step(i, observed, 60.0);
    ASSERT_EQ(d.forecast.size(), 4u);
    for (int h = 1; h <= 4; ++h) {
      const std::size_t idx = std::min(series.size() - 1,
                                       static_cast<std::size_t>(i + h));
      EXPECT_EQ(d.forecast[static_cast<std::size_t>(h - 1)], series[idx])
          << "interval " << i << " horizon " << h;
    }
  }
}

TEST(SchedulerCore, ForecastsClampToClusterCapacity) {
  SchedulerCoreOptions options = small_options();
  options.max_instances = 8;
  SchedulerCore core(gpt2_profile(), options);
  for (int i = 0; i < 12; ++i) {
    const SchedulerDecision d = core.step(i, {8, 0, i == 0 ? 8 : 0}, 60.0);
    for (int f : d.forecast) {
      EXPECT_GE(f, 0);
      EXPECT_LE(f, 8);
    }
  }
}

TEST(SchedulerCore, DepthOverridesBoundTheAdaptation) {
  // GPT-2 needs depth >= 2 by the memory model; an executor whose
  // hardware allows depth 1 can override that, and a shallow executor
  // caps the maximum.
  SchedulerCoreOptions options = small_options();
  options.min_depth_override = 1;
  options.max_depth_override = 3;
  SchedulerCore core(gpt2_profile(), options);
  for (int i = 0; i < 6; ++i) {
    const SchedulerDecision d = core.step(i, {12, 0, i == 0 ? 12 : 0}, 60.0);
    ASSERT_TRUE(d.config.valid());
    EXPECT_LE(d.config.pp, 3) << "interval " << i;
  }
}

// ---------------------------------------------------------------------------
// Golden freezes: the refactor must not move the paper numbers.

TEST(SchedulerCore, GoldenFigure09aAndFigure13OnGpt2HighAvailDense) {
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;

  ParcaePolicyOptions options;
  ParcaePolicy parcae(m, options, &trace);
  const SimulationResult full = simulate(parcae, trace, sim);

  options.mode = PredictionMode::kOracle;
  ParcaePolicy ideal(m, options, &trace);
  const SimulationResult oracle = simulate(ideal, trace, sim);

  options.mode = PredictionMode::kReactive;
  ParcaePolicy reactive_policy(m, options, &trace);
  const SimulationResult reactive = simulate(reactive_policy, trace, sim);

  VarunaPolicy varuna_policy(m);
  const SimulationResult varuna = simulate(varuna_policy, trace, sim);
  BambooPolicy bamboo_policy(m);
  const SimulationResult bamboo = simulate(bamboo_policy, trace, sim);

  // Figure 9a row "GPT-2 / HA-DP" (token/s, exact to print rounding).
  EXPECT_NEAR(full.avg_unit_throughput, 43031.0, 1.0);
  EXPECT_NEAR(oracle.avg_unit_throughput, 46146.0, 1.0);
  EXPECT_NEAR(varuna.avg_unit_throughput, 14194.0, 1.0);
  EXPECT_NEAR(bamboo.avg_unit_throughput, 20917.0, 1.0);

  // Figure 13 row "HA-DP": migration gain then liveput gain.
  EXPECT_NEAR(reactive.committed_samples / varuna.committed_samples, 2.82,
              0.01);
  EXPECT_NEAR(full.committed_samples / varuna.committed_samples, 3.03, 0.01);
}

// ---------------------------------------------------------------------------
// Observability: every run produces a non-empty metrics snapshot.

TEST(SchedulerCore, MetricsSnapshotCoversDecisionsAndLatencies) {
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  ParcaePolicy policy(m, {});
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;
  simulate(policy, trace, sim);

  const obs::MetricsSnapshot snap = policy.scheduler().metrics_snapshot();
  ASSERT_FALSE(snap.empty());
  // Decision counters: HA-DP has preemptions, every interval
  // re-optimizes, migrations happen, and hysteresis holds depth at
  // least once (the Figure 15 case study).
  EXPECT_GT(snap.counter_or("scheduler.preemptions_seen"), 0.0);
  EXPECT_GT(snap.counter_or("scheduler.reoptimizations"), 0.0);
  EXPECT_GT(snap.counter_or("scheduler.migrations_planned"), 0.0);
  EXPECT_GT(snap.counter_or("scheduler.migrations_executed"), 0.0);
  EXPECT_GT(snap.counter_or("scheduler.hysteresis_suppressions"), 0.0);
  // Latency histograms from the optimizer and the MC sampler.
  EXPECT_GT(snap.histograms.at("optimize.ms").count, 0u);
  EXPECT_GT(snap.histograms.at("mc_sampler.sample.ms").count, 0u);
  // Without an injected registry the core owns one, and reset()
  // starts it fresh.
  policy.reset();
  EXPECT_TRUE(policy.scheduler().metrics_snapshot().empty());
}

TEST(SchedulerCore, InjectedRegistrySurvivesReset) {
  obs::MetricsRegistry registry;
  SchedulerCoreOptions options;
  options.metrics = &registry;
  SchedulerCore core(gpt2_profile(), options);
  core.step(0, {28, 0, 28}, 60.0);
  EXPECT_GT(registry.counter_value("scheduler.intervals"), 0.0);
  core.reset();
  // An injected registry belongs to the caller: reset() must not wipe
  // it (concurrent consumers may still be reading).
  EXPECT_GT(registry.counter_value("scheduler.intervals"), 0.0);
}

TEST(SpotDriver, ReportCarriesMetricsSnapshot) {
  const auto ds = nn::make_blobs(128, 12, 4, 0.5, 7);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 24, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  const SpotTrace trace = SpotTrace::from_minute_series(
      "obs", {4, 6, 5, 3, 6, 8, 2, 5}, 8);
  SpotDriverOptions options;
  options.requested_instances = 8;
  options.iterations_per_interval = 1;
  SpotTrainingDriver driver(cluster, &ds, options);
  const SpotDriverReport report = driver.run(trace);
  ASSERT_FALSE(report.metrics.empty());
  EXPECT_DOUBLE_EQ(report.metrics.counter_or("scheduler.intervals"), 8.0);
  EXPECT_EQ(report.metrics.histograms.at("execute-interval.ms").count, 8u);
  EXPECT_EQ(report.metrics.histograms.at("train.ms").count, 8u);
}

}  // namespace
}  // namespace parcae
