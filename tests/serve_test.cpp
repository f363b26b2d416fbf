// The serving subsystem's contracts: the arrival generator is a pure
// function of (seed, interval) — bit-identical across threads and
// replays; the closed-form M/G/1 estimator agrees with the event-level
// simulator at moderate load; request accounting balances exactly,
// including under injected preemptions mid-burst; the goodput
// objective's warm-started incremental re-solve on the shared interval
// DP is bit-identical to a full one; a serving run
// records the shared decision loop's spans, counters and events; and
// the serving metrics roll up through the fleet aggregator and
// Prometheus exporter like any other job's.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/ondemand_policy.h"
#include "common/fault.h"
#include "common/rng.h"
#include "core/interval_dp.h"
#include "core/slo.h"
#include "core/telemetry.h"
#include "migration/cost_model.h"
#include "model/model_profile.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "serve/arrival.h"
#include "serve/queue_model.h"
#include "serve/serving_scheduler.h"
#include "serve/serving_sim.h"
#include "trace/spot_trace.h"

#include "dp_oracles.h"

namespace parcae::serve {
namespace {

ArrivalOptions mmpp_options(std::uint64_t seed) {
  ArrivalOptions a;
  a.kind = ArrivalKind::kMmpp;
  a.seed = seed;
  a.base_rps = 30.0;
  a.burst_multiplier = 3.0;
  return a;
}

// ---------------------------------------------------------------------
// Arrival generator

TEST(ArrivalTest, CountMatchesArrivalsAndReplays) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp}) {
    ArrivalOptions a = mmpp_options(77);
    a.kind = kind;
    ArrivalGenerator gen(a);
    gen.prepare(64);
    std::vector<double> out;
    for (int i = 0; i < 64; ++i) {
      gen.arrivals(i, out);
      EXPECT_EQ(gen.count(i), static_cast<int>(out.size())) << i;
      EXPECT_TRUE(std::is_sorted(out.begin(), out.end())) << i;
      for (double t : out) {
        EXPECT_GE(t, 0.0);
        EXPECT_LT(t, a.interval_s);
      }
    }
    // A second generator with the same seed replays bit-identically.
    ArrivalGenerator replay(a);
    replay.prepare(64);
    std::vector<double> out2;
    for (int i = 0; i < 64; ++i) {
      gen.arrivals(i, out);
      replay.arrivals(i, out2);
      EXPECT_EQ(out, out2) << i;
      EXPECT_EQ(gen.realized_rps(i), replay.realized_rps(i)) << i;
    }
  }
}

TEST(ArrivalTest, ThreadsBitIdentical) {
  // Any thread may generate any interval in any order; counts and
  // offsets must be bit-identical to a serial sweep.
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kMmpp}) {
    ArrivalOptions a = mmpp_options(2024);
    a.kind = kind;
    ArrivalGenerator gen(a);
    const int intervals = 96;
    gen.prepare(intervals);

    std::vector<std::vector<double>> serial(intervals);
    for (int i = 0; i < intervals; ++i) gen.arrivals(i, serial[i]);

    for (int threads : {4, 8}) {
      std::vector<std::vector<double>> parallel(intervals);
      std::vector<std::thread> workers;
      for (int w = 0; w < threads; ++w)
        workers.emplace_back([&, w] {
          // Strided, deliberately out of order.
          for (int i = intervals - 1 - w; i >= 0; i -= threads)
            gen.arrivals(i, parallel[static_cast<std::size_t>(i)]);
        });
      for (auto& t : workers) t.join();
      for (int i = 0; i < intervals; ++i)
        EXPECT_EQ(serial[i], parallel[i])
            << arrival_kind_name(kind) << " interval " << i;
    }
  }
}

// 64-bit FNV-1a over the bit patterns of every interval's offset count
// and offsets, in order.
std::uint64_t arrival_digest(const ArrivalOptions& options, int intervals) {
  ArrivalGenerator gen(options);
  gen.prepare(intervals);
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto hash_word = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  std::vector<double> out;
  for (int i = 0; i < intervals; ++i) {
    gen.arrivals(i, out);
    hash_word(out.size());
    for (double t : out) hash_word(std::bit_cast<std::uint64_t>(t));
  }
  return h;
}

TEST(ArrivalTest, OffsetsMatchPinnedDigest) {
  // The offsets are pinned across commits, not only across threads and
  // replays: however arrivals() orders them, it must return exactly the
  // sorted vector these digests were taken from. At 500 rps every
  // interval holds 30k-90k offsets; at 0.02 rps a handful (Poisson mean
  // 1.2, 3.6 in an MMPP burst), so the empty and single-offset
  // intervals are covered too.
  struct Case {
    ArrivalKind kind;
    double base_rps;
    int intervals;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {ArrivalKind::kPoisson, 500.0, 16, 0x635076b8f1b38e3eull},
      {ArrivalKind::kMmpp, 500.0, 16, 0xa1559284447c5fe7ull},
      {ArrivalKind::kPoisson, 0.02, 64, 0x729ae61d54bf1c04ull},
      {ArrivalKind::kMmpp, 0.02, 64, 0xf18bd47d8dd5c732ull},
  };
  for (const Case& c : cases) {
    ArrivalOptions a = mmpp_options(2024);
    a.kind = c.kind;
    a.base_rps = c.base_rps;
    EXPECT_EQ(arrival_digest(a, c.intervals), c.digest)
        << arrival_kind_name(c.kind) << " at " << c.base_rps << " rps";
  }
}

TEST(ArrivalTest, PrepareExtensionKeepsPrefix) {
  ArrivalGenerator gen(mmpp_options(5));
  gen.prepare(16);
  std::vector<double> rates;
  for (int i = 0; i < 16; ++i) rates.push_back(gen.realized_rps(i));
  gen.prepare(64);  // extending must not disturb the prefix
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rates[i], gen.realized_rps(i)) << i;
}

TEST(ArrivalTest, DiurnalEnvelopeShapesTheRate) {
  ArrivalOptions a;
  a.kind = ArrivalKind::kPoisson;
  a.base_rps = 50.0;
  a.diurnal_amplitude = 0.5;
  a.diurnal_period_s = 240.0;  // 4 intervals per cycle
  // The envelope samples interval midpoints (30, 90, 150, 210 s);
  // phase them so interval 1 peaks and interval 3 troughs.
  a.diurnal_phase_s = 30.0;
  ArrivalGenerator gen(a);
  EXPECT_NEAR(gen.expected_rps(1), 75.0, 1e-9);
  EXPECT_NEAR(gen.expected_rps(3), 25.0, 1e-9);
  EXPECT_NEAR(gen.expected_rps(0), 50.0, 1e-9);
}

TEST(ArrivalTest, MmppStationaryMeanInExpectedRps) {
  const ArrivalOptions a = mmpp_options(9);
  ArrivalGenerator gen(a);
  const double pi_burst = kPEnterBurst / (kPEnterBurst + kPExitBurst);
  EXPECT_NEAR(gen.expected_rps(0),
              a.base_rps * (1.0 + pi_burst * (a.burst_multiplier - 1.0)),
              1e-9);
}

TEST(ArrivalTest, ReplayFollowsSeries) {
  ArrivalOptions a;
  a.kind = ArrivalKind::kReplay;
  a.replay_rps = {10.0, 40.0, 20.0};
  ArrivalGenerator gen(a);
  gen.prepare(8);
  EXPECT_EQ(gen.expected_rps(1), 40.0);
  EXPECT_EQ(gen.expected_rps(7), 20.0);  // repeats the last entry
  // Counts follow the series scale.
  EXPECT_GT(gen.count(1), gen.count(0));
}

// ---------------------------------------------------------------------
// Queue model vs event-level simulator

TEST(QueueModelTest, EstimatorBasics) {
  const ModelProfile model = model_by_name("GPT-2");
  ThroughputModel tp(model, ThroughputModelOptions{});
  ReplicaQueueModel qm(&tp, ServingModelOptions{});

  // GPT-2's training memory model needs at least two stages, so the
  // shallowest serving replica is pp = 2.
  const ParallelConfig c{4, 2};
  ASSERT_TRUE(qm.serving_feasible(c));
  EXPECT_FALSE(qm.serving_feasible(ParallelConfig{4, 1}));
  const double cap = qm.replica_capacity_rps(2);
  ASSERT_GT(cap, 0.0);

  // Goodput rises with offered load below capacity and saturates at it.
  const ServingEstimate low = qm.estimate(c, cap);
  const ServingEstimate mid = qm.estimate(c, 2.0 * cap);
  const ServingEstimate over = qm.estimate(c, 20.0 * cap);
  EXPECT_GT(mid.goodput_rps, low.goodput_rps);
  EXPECT_LE(over.served_rps, over.capacity_rps + 1e-9);
  EXPECT_LT(over.slo_hit_prob, 1.0);

  // Infeasible depth yields zero.
  EXPECT_EQ(qm.goodput(ParallelConfig{1, model.partition_units + 1}, 10.0),
            0.0);
  // best_serving_config right-sizes: at a tiny load it does not take
  // all instances.
  const ParallelConfig best = qm.best_serving_config(32, 1.0);
  ASSERT_TRUE(best.valid());
  EXPECT_LT(best.instances(), 32);
}

TEST(QueueModelTest, EstimatorAgreesWithEventSimulator) {
  // Flat availability, pinned static config, moderate load: the
  // closed-form goodput must track the event-level simulator within
  // 15%.
  const ModelProfile model = model_by_name("GPT-2");
  ThroughputModel tp(model, ThroughputModelOptions{});
  ReplicaQueueModel qm(&tp, ServingModelOptions{});
  const ParallelConfig pinned{8, 2};
  const double capacity = qm.replica_capacity_rps(2) * pinned.dp;

  ArrivalOptions a;
  a.kind = ArrivalKind::kPoisson;
  a.seed = 31;
  a.base_rps = 0.6 * capacity;  // rho ~ 0.6
  ArrivalGenerator arrivals(a);

  ServingSchedulerOptions sopt;
  sopt.mode = ServingMode::kStatic;
  sopt.static_config = pinned;
  ServingScheduler scheduler(model, sopt, &arrivals);

  const SpotTrace trace = flat_trace(16, 60 * 60.0);
  ServingSimOptions sim;
  sim.record_timeline = false;
  const ServingSimResult r =
      simulate_serving(scheduler, arrivals, trace, 60, sim);
  ASSERT_EQ(r.advised.size(), 60u);

  for (const ParallelConfig& c : r.advised) EXPECT_EQ(c, pinned);
  const double estimated = qm.goodput(pinned, a.base_rps);
  ASSERT_GT(r.goodput_rps, 0.0);
  EXPECT_NEAR(r.goodput_rps, estimated, 0.15 * estimated);
  // At rho 0.6 with a seconds-scale SLO nearly everything lands.
  EXPECT_GT(r.slo_attainment, 0.85);
}

TEST(QueueModelTest, DrainCostBoundedAndMonotoneInLoad) {
  const ModelProfile model = model_by_name("GPT-2");
  ThroughputModel tp(model, ThroughputModelOptions{});
  ServingModelOptions so;
  ReplicaQueueModel qm(&tp, so);
  const ParallelConfig c{4, 2};
  const double light = qm.drain_cost_s(c, 1.0);
  const double heavy = qm.drain_cost_s(c, 1000.0);
  EXPECT_GT(light, 0.0);
  EXPECT_GE(heavy, light);
  EXPECT_LE(heavy, kDrainCapS);
  // Drain is a serving-only term that flows through the shared
  // migration cost total.
  MigrationCostTerms terms;
  terms.drain_s = 3.0;
  EXPECT_EQ(terms.total(), 3.0);
}

// ---------------------------------------------------------------------
// Goodput objective on the shared interval DP

std::vector<double> flat_rps(int n, double rps) {
  return std::vector<double>(static_cast<std::size_t>(n), rps);
}

IntervalDpOptions goodput_dp_options(int mc_trials) {
  IntervalDpOptions opt;
  opt.mc_trials = mc_trials;
  opt.seed = 11;
  return opt;
}

TEST(GoodputDpTest, IncrementalMatchesFullAcrossChurn) {
  const ModelProfile model = model_by_name("GPT-2");
  const GoodputObjective objective(model, {}, nullptr, 32);

  // Every step solves on a warm engine and on its cold twin, which
  // must agree bit for bit.
  WarmAndCold dp(&objective, model, goodput_dp_options(64));

  Rng rng(404);
  std::vector<int> n(8, 12);
  std::vector<double> rps = flat_rps(8, 25.0);
  ParallelConfig current = kIdleConfig;
  for (int step = 0; step < 24; ++step) {
    switch (rng.uniform_int(4)) {
      case 0:  // quiet
        break;
      case 1:  // preemption cliff
        for (std::size_t i = 4; i < n.size(); ++i)
          n[i] = std::max(2, n[i] - 3);
        break;
      case 2:  // allocation ramp
        for (std::size_t i = 2; i < n.size(); ++i)
          n[i] = std::min(16, n[i] + 2);
        break;
      default:  // rate swing (burst arriving in the forecast)
        for (std::size_t i = 0; i < rps.size(); ++i)
          rps[i] = 25.0 * (1.0 + 2.0 * ((step + static_cast<int>(i)) % 3 == 0));
        break;
    }
    current = dp.optimize(current, n[0], n, rps).next();
  }
  dp.expect_same_draws();
  EXPECT_GT(dp.warm().states_reused(), 0u);
  EXPECT_EQ(dp.cold().states_reused(), 0u);
}

TEST(GoodputDpTest, ChargesDrainOnConfigChangeOnly) {
  const ModelProfile model = model_by_name("GPT-2");
  const GoodputObjective objective(model, {}, nullptr, 32);
  IntervalDp dp(&objective, CostEstimator(model), goodput_dp_options(32));

  const ParallelConfig c{4, 1};
  const double stay = dp.edge_cost(c, 8, c, 0, 30.0);
  const double move = dp.edge_cost(c, 8, ParallelConfig{8, 1}, 0, 30.0);
  EXPECT_GT(move, stay);
  // The drain is the objective's switch stall on top of the migration.
  EXPECT_EQ(move, dp.expected_migration_cost(c, 8, ParallelConfig{8, 1}, 0) +
                      objective.queue_model().drain_cost_s(c, 30.0));
}

// ---------------------------------------------------------------------
// End-to-end serving simulation

ServingSimResult run_sim(ServingMode mode, std::uint64_t seed,
                         const std::string& faults = "",
                         obs::MetricsRegistry* metrics = nullptr,
                         const std::string& prefix = "") {
  const ModelProfile model = model_by_name("GPT-2");
  ArrivalOptions a = mmpp_options(seed ^ 0xa221ull);
  ArrivalGenerator arrivals(a);

  // A non-empty prefix records through a view of `metrics`, as a
  // fleet job does.
  std::optional<obs::MetricsRegistry> view;
  if (metrics != nullptr && !prefix.empty())
    metrics = &view.emplace(*metrics, prefix);

  ServingSchedulerOptions sopt;
  sopt.mode = mode;
  sopt.seed = seed;
  sopt.mc_trials = 64;
  sopt.metrics = metrics;
  ServingScheduler scheduler(model, sopt, &arrivals);

  ServingSimOptions sim;
  sim.metrics = metrics;
  FaultInjector injector(seed ^ 0xfa017ull);
  if (!faults.empty()) {
    std::string error;
    EXPECT_TRUE(injector.arm_from_spec(faults, &error)) << error;
    sim.faults = &injector;
  }
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  return simulate_serving(scheduler, arrivals, trace, 60, sim);
}

void expect_results_identical(const ServingSimResult& a,
                              const ServingSimResult& b, const char* what) {
  EXPECT_EQ(a.advised, b.advised) << what;
  EXPECT_EQ(a.requests_arrived, b.requests_arrived) << what;
  EXPECT_EQ(a.requests_served, b.requests_served) << what;
  EXPECT_EQ(a.requests_good, b.requests_good) << what;
  EXPECT_EQ(a.requests_dropped, b.requests_dropped) << what;
  EXPECT_EQ(a.requests_carried, b.requests_carried) << what;
  EXPECT_EQ(a.slo_violations, b.slo_violations) << what;
  EXPECT_EQ(a.p99_ms, b.p99_ms) << what;
  EXPECT_EQ(a.spot_cost_usd, b.spot_cost_usd) << what;
}

TEST(ServingSimTest, AccountingBalances) {
  const ServingSimResult r = run_sim(ServingMode::kProactive, 123);
  EXPECT_GT(r.requests_arrived, 0u);
  EXPECT_GT(r.requests_good, 0u);
  EXPECT_EQ(r.requests_arrived,
            r.requests_served + r.requests_dropped + r.requests_carried);
  EXPECT_GE(r.requests_served, r.requests_good);
  EXPECT_EQ(r.slo_violations,
            (r.requests_served - r.requests_good) + r.requests_dropped);
  EXPECT_GT(r.slo_attainment, 0.0);
  EXPECT_LE(r.slo_attainment, 1.0);
  EXPECT_GT(r.spot_cost_usd, 0.0);
  // The latency histogram is fed one batch per interval and still holds
  // one observation per completed request.
  EXPECT_EQ(r.metrics.histograms.at("serve.latency_ms").count,
            r.requests_served);
}

TEST(ServingSimTest, ObservesAvailabilityBySimulateRules) {
  // Training and serving observe a trace by one rule: the same
  // instances per interval, the unpredicted-preemption point asked only
  // while an instance is available (6 of these 8 intervals), and no
  // allocation at interval 0.
  const SpotTrace trace = SpotTrace::from_minute_series(
      "dips", {4, 4, 0, 0, 3, 4, 4, 2}, 8, 60.0);
  const std::string faults = "sim.unpredicted_preempt:prob=1";

  obs::MetricsRegistry train_metrics;
  FaultInjector train_faults(5);
  ASSERT_TRUE(train_faults.arm_from_spec(faults));
  ParcaePolicyOptions popt;
  popt.mc_trials = 16;
  popt.max_instances = 8;
  popt.metrics = &train_metrics;
  ParcaePolicy policy(gpt2_profile(), popt);
  SimulationOptions sim;
  sim.metrics = &train_metrics;
  sim.faults = &train_faults;
  const SimulationResult trained = simulate(policy, trace, sim);

  obs::MetricsRegistry serve_metrics;
  FaultInjector serve_faults(5);
  ASSERT_TRUE(serve_faults.arm_from_spec(faults));
  ArrivalGenerator arrivals(ArrivalOptions{});
  ServingSchedulerOptions sopt;
  sopt.mc_trials = 16;
  sopt.max_instances = 8;
  sopt.metrics = &serve_metrics;
  ServingScheduler scheduler(gpt2_profile(), sopt, &arrivals);
  ServingSimOptions serve;
  serve.metrics = &serve_metrics;
  serve.faults = &serve_faults;
  const ServingSimResult served =
      simulate_serving(scheduler, arrivals, trace, 8, serve);

  ASSERT_EQ(trained.timeline.size(), 8u);
  ASSERT_EQ(served.timeline.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(served.timeline[i].available, trained.timeline[i].available)
        << "interval " << i;
  const std::string fired = "fault.injected.sim.unpredicted_preempt";
  EXPECT_EQ(train_metrics.counter_value(fired), 6.0);
  EXPECT_EQ(serve_metrics.counter_value(fired), 6.0);
  EXPECT_EQ(serve_metrics.counter_value("serve.scheduler.allocations_seen"),
            train_metrics.counter_value("scheduler.allocations_seen"));
}

TEST(ServingSimTest, DeterministicAcrossReruns) {
  for (ServingMode mode : {ServingMode::kProactive, ServingMode::kReactive})
    expect_results_identical(run_sim(mode, 123), run_sim(mode, 123), "rerun");
}

TEST(ServingSimTest, WarmStartedDpMatchesFullResolveInTheLoop) {
  // The serving loop warm-starts the shared DP across intervals while
  // its rate forecast moves with the burst state. Two cores step over
  // the same observation stream and the same prepared arrivals; the
  // twin's DP drops its warm state before every step, so it always
  // solves cold. The warm core must decide exactly what the twin
  // decides, decision by decision.
  const ModelProfile model = model_by_name("GPT-2");
  const std::vector<int> series =
      canonical_segment(TraceSegment::kLowAvailSparse).availability_series();
  ArrivalGenerator arrivals(mmpp_options(9));
  arrivals.prepare(static_cast<int>(series.size()));
  ServingSchedulerOptions sopt;
  sopt.mc_trials = 32;
  sopt.seed = 9;
  ServingScheduler warm(model, sopt, &arrivals);
  ServingScheduler cold(model, sopt, &arrivals);
  int prev_available = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const int interval = static_cast<int>(i);
    const int available = series[i];
    const AvailabilityObservation observed{
        available, std::max(0, prev_available - available),
        std::max(0, available - prev_available)};
    prev_available = available;
    const SchedulerDecision a = warm.step(interval, observed, 60.0);
    cold.core().optimizer().invalidate();
    const SchedulerDecision b = cold.step(interval, observed, 60.0);
    EXPECT_EQ(a.config, b.config) << "interval " << i;
    EXPECT_EQ(a.planned_next, b.planned_next) << "interval " << i;
    EXPECT_EQ(a.stall_s, b.stall_s) << "interval " << i;
  }
  EXPECT_EQ(warm.core().metrics().counter_value("mc_sampler.samples"),
            cold.core().metrics().counter_value("mc_sampler.samples"));
  EXPECT_GT(warm.core().optimizer().states_reused(), 0u);
  EXPECT_EQ(cold.core().optimizer().states_reused(), 0u);
}

TEST(ServingSimTest, AccountingBalancesUnderInjectedPreemptionMidBurst) {
  // An unpredicted preemption in the middle of the MMPP burst window:
  // accounting must still balance exactly and replays must be
  // bit-identical, faults included.
  const std::string spec = "sim.unpredicted_preempt:prob=0.2";
  const ServingSimResult r = run_sim(ServingMode::kProactive, 9, spec);
  EXPECT_EQ(r.requests_arrived,
            r.requests_served + r.requests_dropped + r.requests_carried);
  const ServingSimResult again = run_sim(ServingMode::kProactive, 9, spec);
  expect_results_identical(r, again, "fault rerun");
}

TEST(ServingSimTest, AdmissionFaultDropsExactlyTheNthRequest) {
  // Light load on a flat trace: nothing drops organically, so the
  // armed serve.admission point's forced drop is the only one.
  const ModelProfile model = model_by_name("GPT-2");
  const auto run = [&](const std::string& faults) {
    ArrivalOptions a;
    a.kind = ArrivalKind::kPoisson;
    a.seed = 13;
    a.base_rps = 8.0;
    ArrivalGenerator arrivals(a);
    ServingSchedulerOptions sopt;
    sopt.mode = ServingMode::kStatic;
    sopt.static_config = ParallelConfig{4, 2};
    ServingScheduler scheduler(model, sopt, &arrivals);
    ServingSimOptions sim;
    sim.record_timeline = false;
    FaultInjector injector(99);
    if (!faults.empty()) {
      std::string error;
      EXPECT_TRUE(injector.arm_from_spec(faults, &error)) << error;
      sim.faults = &injector;
    }
    const SpotTrace trace = flat_trace(8, 20 * 60.0);
    return simulate_serving(scheduler, arrivals, trace, 20, sim);
  };
  const ServingSimResult clean = run("");
  const ServingSimResult faulty = run("serve.admission:nth=5,max=1");
  EXPECT_EQ(clean.requests_dropped, 0u);
  EXPECT_EQ(faulty.requests_dropped, 1u);
  EXPECT_EQ(faulty.requests_arrived, clean.requests_arrived);
  EXPECT_EQ(faulty.requests_served + 1, clean.requests_served);
}

TEST(ServingSimTest, ProactiveBeatsStaticOnChurnyTrace) {
  const ServingSimResult proactive = run_sim(ServingMode::kProactive, 123);
  const ServingSimResult fixed = run_sim(ServingMode::kStatic, 123);
  EXPECT_GT(proactive.slo_attainment, fixed.slo_attainment);
}

// ---------------------------------------------------------------------
// Observability

TEST(ServingSchedulerTest, CoreKnobsReachTheCoreAsSet) {
  // ServingSchedulerOptions is SchedulerCoreOptions plus the request
  // model, so every core knob reaches the core as set, including those
  // serve_sim_cli has no key for.
  ArrivalGenerator arrivals(ArrivalOptions{});
  ServingSchedulerOptions sopt;
  sopt.mode = ServingMode::kReactive;
  sopt.lookahead = 5;
  sopt.seed = 77;
  sopt.cost_noise_stddev = 0.05;
  sopt.min_depth_override = 2;
  sopt.max_depth_override = 6;
  ServingScheduler reactive(model_by_name("GPT-2"), sopt, &arrivals);
  const SchedulerCoreOptions& c = reactive.core().options();
  EXPECT_EQ(c.mode, PredictionMode::kReactive);
  EXPECT_EQ(c.lookahead, 5);
  EXPECT_EQ(c.seed, 77u);
  EXPECT_EQ(c.cost_noise_stddev, 0.05);
  EXPECT_EQ(c.min_depth_override, 2);
  EXPECT_EQ(c.max_depth_override, 6);
  EXPECT_FALSE(c.static_config.valid());

  // Only kStatic fills in an unset static_config, and only in the
  // core's copy.
  sopt.mode = ServingMode::kStatic;
  ServingScheduler fixed(model_by_name("GPT-2"), sopt, &arrivals);
  EXPECT_TRUE(fixed.core().options().static_config.valid());
  EXPECT_FALSE(fixed.options().static_config.valid());
}

TEST(ServeObsTest, MetricsRollUpThroughFleetAggregatorAndExporter) {
  obs::MetricsRegistry registry;
  const ServingSimResult r = run_sim(ServingMode::kProactive, 123, "",
                                     &registry, "job7.");
  const obs::MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.at("job7.serve.requests"),
            static_cast<double>(r.requests_arrived));
  EXPECT_EQ(snapshot.counters.at("job7.serve.slo_violations"),
            static_cast<double>(r.slo_violations));
  ASSERT_TRUE(snapshot.gauges.count("job7.serve.goodput"));
  ASSERT_TRUE(snapshot.gauges.count("job7.serve.p99_latency_ms"));
  ASSERT_TRUE(snapshot.gauges.count("job7.serve.queue_depth"));

  obs::FleetAggregator fleet;
  fleet.fold(snapshot);
  const obs::MetricsSnapshot rolled = fleet.rollup();
  EXPECT_EQ(rolled.counters.at("fleet.serve.requests"),
            static_cast<double>(r.requests_arrived));
  ASSERT_TRUE(rolled.gauges.count("fleet.serve.goodput"));

  const std::string prom = obs::to_prometheus(snapshot);
  EXPECT_NE(prom.find("parcae_serve_requests_total{job=\"7\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("parcae_serve_goodput{job=\"7\"}"), std::string::npos);
}

TEST(ServeObsTest, DecisionLoopEmitsSpansEventsAndCounters) {
  // Serving runs on the shared decision loop, so a serving run records
  // what a training run records: the step / predict / optimize /
  // plan-migration spans, the DP counters and the decision audit log.
  const ModelProfile model = model_by_name("GPT-2");
  ArrivalGenerator arrivals(mmpp_options(123 ^ 0xa221ull));
  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  ServingSchedulerOptions sopt;
  sopt.mc_trials = 64;
  sopt.metrics = &registry;
  sopt.tracer = &tracer;
  ServingScheduler scheduler(model, sopt, &arrivals);
  ServingSimOptions sim;
  sim.metrics = &registry;
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  const ServingSimResult r =
      simulate_serving(scheduler, arrivals, trace, 60, sim);

  const obs::MetricsSnapshot& m = r.metrics;
  ASSERT_TRUE(m.histograms.count("serve.scheduler.step.ms"));
  EXPECT_EQ(m.histograms.at("serve.scheduler.step.ms").count, 60u);
  for (const char* span : {"predict.ms", "optimize.ms", "plan-migration.ms"}) {
    ASSERT_TRUE(m.histograms.count(span)) << span;
    EXPECT_GT(m.histograms.at(span).count, 0u) << span;
  }
  EXPECT_EQ(m.counters.at("serve.scheduler.intervals"), 60.0);
  EXPECT_EQ(m.counters.at("serve_dp.runs"),
            m.counters.at("serve.scheduler.reoptimizations"));
  EXPECT_GT(m.counters.at("serve_dp.states_reused"), 0.0);
  ASSERT_TRUE(m.gauges.count("serve.scheduler.expected_good_requests"));
  EXPECT_GT(tracer.size(), 0u);

  const EventLog& events = scheduler.core().telemetry();
  EXPECT_FALSE(events.by_category(EventCategory::kCloud).empty());
  EXPECT_FALSE(events.by_category(EventCategory::kDecision).empty());
  EXPECT_NE(events.to_jsonl().find("configuration change"),
            std::string::npos);

  // Observing never changes a decision.
  const ServingSimResult bare = run_sim(ServingMode::kProactive, 123);
  expect_results_identical(r, bare, "observed vs bare");
}

TEST(ServeObsTest, ServingSloRulesFireOnLatencyBreach) {
  // Overload a tiny static deployment so p99 breaches for consecutive
  // intervals; the built-in serving rules must fire.
  const ModelProfile model = model_by_name("GPT-2");
  ArrivalOptions a;
  a.kind = ArrivalKind::kPoisson;
  a.seed = 3;
  a.base_rps = 60.0;  // far beyond a 2x1 deployment's capacity
  ArrivalGenerator arrivals(a);

  ServingSchedulerOptions sopt;
  sopt.mode = ServingMode::kStatic;
  sopt.static_config = ParallelConfig{2, 2};
  // A deep admission queue lets queued wait grow well past the SLO, so
  // the p99 gauge breaches on every interval (not just the first).
  sopt.serving.admission_queue_cap = 128;
  ServingScheduler scheduler(model, sopt, &arrivals);

  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series;
  SloEngine slo(SloEngine::default_serving_rules());
  ServingSimOptions sim;
  sim.metrics = &registry;
  sim.timeseries = &series;
  sim.slo = &slo;
  const SpotTrace trace = flat_trace(8, 20 * 60.0);
  simulate_serving(scheduler, arrivals, trace, 20, sim);

  bool p99_fired = false, violation_fired = false;
  for (const SloAlert& alert : slo.alerts()) {
    if (alert.rule == "serve-p99-breach") p99_fired = true;
    if (alert.rule == "serve-violation-surge") violation_fired = true;
  }
  EXPECT_TRUE(p99_fired);
  EXPECT_TRUE(violation_fired);
}

}  // namespace
}  // namespace parcae::serve
