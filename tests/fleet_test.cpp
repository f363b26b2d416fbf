// Fleet layer: the FleetArbiter's fairness/arbitration/swap machinery,
// lease ledger audit trail, deterministic seed forking, and the
// headline property that liveput-arbitrated leasing beats static
// partitioning on aggregate weighted liveput for a heterogeneous
// 10-job fleet.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/table.h"
#include "fleet/fleet_arbiter.h"
#include "fleet/fleet_sim.h"
#include "fleet/lease.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"
#include "trace/trace_io.h"

namespace parcae {
namespace {

using fleet::ArbiterJobSpec;
using fleet::FleetArbiter;
using fleet::FleetArbiterOptions;
using fleet::FleetSimOptions;
using fleet::FleetSimResult;
using fleet::FleetSimulator;
using fleet::JobValueTable;
using fleet::LeaseChangeReason;

// ---------------------------------------------------------------------------
// Seed forking (the FaultInjector FNV-1a scheme).

TEST(FleetSeeds, ForkIsStableAndPerJob) {
  // Pin the forking scheme: FNV-1a("job<id>") XOR fleet seed. A change
  // here silently reshuffles every fleet replay.
  EXPECT_EQ(fleet_job_seed(0, 0), fleet_hash_name("job0"));
  EXPECT_EQ(fleet_job_seed(42, 3), 42ull ^ fleet_hash_name("job3"));
  // Streams are distinct per job and independent of fleet size.
  EXPECT_NE(fleet_job_seed(42, 0), fleet_job_seed(42, 1));
  EXPECT_NE(fleet_job_seed(42, 1), fleet_job_seed(42, 2));
  EXPECT_EQ(fleet_job_seed(42, 7), fleet_job_seed(42, 7));
}

// ---------------------------------------------------------------------------
// Value tables and the arbiter.

JobValueTable table(std::vector<double> v) {
  JobValueTable t;
  t.value = std::move(v);
  return t;
}

TEST(FleetArbiter, UsableMaxStopsWhereValueFlattens) {
  EXPECT_EQ(table({0.0, 0.5, 1.0, 1.0, 1.0}).usable_max(), 2);
  EXPECT_EQ(table({0.0, 1.0}).usable_max(), 1);
  EXPECT_EQ(table({0.0, 0.0, 0.0}).usable_max(), 0);
}

TEST(FleetArbiter, ValueTableFromModelIsNormalizedAndMonotone) {
  const ThroughputModel model(gpt3_profile(), {});
  const JobValueTable t = fleet::value_table_from_model(model, 32);
  ASSERT_EQ(t.capacity(), 32);
  EXPECT_DOUBLE_EQ(t.value[0], 0.0);
  EXPECT_DOUBLE_EQ(t.value[32], 1.0);  // normalized at capacity
  for (int n = 1; n <= 32; ++n) EXPECT_GE(t.value[n], t.value[n - 1]);
  // GPT-3 commits nothing below its minimum feasible depth; the raw
  // table is flat-zero there (the hull, not the table, bridges it).
  EXPECT_DOUBLE_EQ(t.value[1], 0.0);
}

TEST(FleetArbiter, FairSharesAreWeightedWaterFill) {
  std::vector<ArbiterJobSpec> jobs(2);
  jobs[0].job_id = 0;
  jobs[0].weight = 1.0;
  jobs[0].values = table({0.0, 0.25, 0.5, 0.75, 1.0});
  jobs[1].job_id = 1;
  jobs[1].weight = 3.0;
  jobs[1].values = table({0.0, 0.25, 0.5, 0.75, 1.0});
  FleetArbiterOptions options;
  options.capacity = 4;
  const FleetArbiter arbiter(jobs, options);
  // Weight 3 job gets 3 of 4.
  EXPECT_EQ(arbiter.fair_shares(4), (std::vector<int>{1, 3}));
  // Shares never exceed a job's usable maximum.
  std::vector<ArbiterJobSpec> capped = jobs;
  capped[1].values = table({0.0, 1.0, 1.0, 1.0, 1.0});  // usable_max 1
  const FleetArbiter arbiter2(capped, options);
  EXPECT_EQ(arbiter2.fair_shares(4), (std::vector<int>{3, 1}));
}

TEST(FleetArbiter, RevokesTheCheapestMarginalLossPerWeight) {
  // Job 0: steep value; job 1: shallow value, same weight. Shrinking
  // by one must take from job 1.
  std::vector<ArbiterJobSpec> jobs(2);
  jobs[0].job_id = 0;
  jobs[0].weight = 1.0;
  jobs[0].values = table({0.0, 0.6, 1.0});
  jobs[1].job_id = 1;
  jobs[1].weight = 1.0;
  jobs[1].values = table({0.0, 0.1, 0.2});
  FleetArbiterOptions options;
  options.capacity = 4;
  FleetArbiter arbiter(jobs, options);
  EXPECT_EQ(arbiter.rebalance(0, 4), (std::vector<int>{2, 2}));
  EXPECT_EQ(arbiter.rebalance(1, 3), (std::vector<int>{2, 1}));
  EXPECT_EQ(arbiter.rebalance(2, 2), (std::vector<int>{2, 0}));
  // The ledger recorded the shrink with its reason.
  int shrinks = 0;
  for (const auto& change : arbiter.ledger().changes())
    if (change.reason == LeaseChangeReason::kPoolShrink) {
      ++shrinks;
      EXPECT_EQ(change.job_id, 1);
      EXPECT_EQ(change.delta, -1);
    }
  EXPECT_EQ(shrinks, 2);
  EXPECT_EQ(arbiter.ledger().instances_revoked(), 2);
}

TEST(FleetArbiter, SwapsMoveCapacityTowardHigherMarginalValue) {
  // Equal weights, equal fair shares — but job 1's value curve is far
  // steeper past its fair share, so the objective-improving swap loop
  // should shift capacity to it.
  std::vector<ArbiterJobSpec> jobs(2);
  jobs[0].job_id = 0;
  jobs[0].weight = 1.0;
  jobs[0].values = table({0.0, 0.05, 0.1, 0.15, 0.2});
  jobs[1].job_id = 1;
  jobs[1].weight = 1.0;
  jobs[1].values = table({0.0, 0.25, 0.5, 0.75, 1.0});
  FleetArbiterOptions options;
  options.capacity = 4;
  FleetArbiter arbiter(jobs, options);
  const std::vector<int> grants = arbiter.rebalance(0, 4);
  EXPECT_GT(grants[1], grants[0]);
  EXPECT_EQ(grants[0] + grants[1], 4);
  // The weighted objective at the chosen grants beats the fair split.
  EXPECT_GT(arbiter.weighted_value(grants),
            arbiter.weighted_value(arbiter.fair_shares(4)));
}

TEST(FleetArbiter, HullBridgesTheGpt3Plateau) {
  // A job whose raw value is zero until depth 9 (GPT-3) must still
  // attract grants through the amortized hull marginals when it is the
  // only job that values the pool highly.
  std::vector<ArbiterJobSpec> jobs(2);
  jobs[0].job_id = 0;
  jobs[0].weight = 1.0;
  jobs[0].values =
      fleet::value_table_from_model(ThroughputModel(gpt3_profile(), {}), 16);
  jobs[1].job_id = 1;
  jobs[1].weight = 1.0;
  jobs[1].values = table(std::vector<double>(17, 0.0));  // worthless pool
  jobs[1].values.value[1] = 0.01;
  FleetArbiterOptions options;
  options.capacity = 16;
  FleetArbiter arbiter(jobs, options);
  const std::vector<int> grants = arbiter.rebalance(0, 16);
  // GPT-3 must reach at least its minimum feasible depth.
  EXPECT_GE(grants[0], 9);
}

TEST(FleetArbiter, RebalanceIsDeterministic) {
  const auto run = [] {
    std::vector<ArbiterJobSpec> jobs(4);
    for (int j = 0; j < 4; ++j) {
      jobs[j].job_id = j;
      jobs[j].weight = j % 2 == 0 ? 1.0 : 2.0;
      jobs[j].values = fleet::value_table_from_model(
          ThroughputModel(j % 2 == 0 ? gpt2_profile() : bert_large_profile(),
                          {}),
          32);
    }
    FleetArbiterOptions options;
    options.capacity = 32;
    FleetArbiter arbiter(std::move(jobs), options);
    std::vector<std::vector<int>> history;
    const int pool[] = {32, 24, 24, 8, 0, 16, 32, 30};
    for (int i = 0; i < 8; ++i) history.push_back(arbiter.rebalance(i, pool[i]));
    return history;
  };
  EXPECT_EQ(run(), run());
}

TEST(FleetArbiter, GrantsNeverExceedThePool) {
  std::vector<ArbiterJobSpec> jobs(3);
  for (int j = 0; j < 3; ++j) {
    jobs[j].job_id = j;
    jobs[j].weight = 1.0;
    jobs[j].values = fleet::value_table_from_model(
        ThroughputModel(gpt2_profile(), {}), 32);
  }
  FleetArbiterOptions options;
  options.capacity = 32;
  FleetArbiter arbiter(std::move(jobs), options);
  for (int i = 0; i < 40; ++i) {
    const int pool = (i * 7) % 33;
    const std::vector<int>& grants = arbiter.rebalance(i, pool);
    int total = 0;
    for (const int g : grants) {
      EXPECT_GE(g, 0);
      total += g;
    }
    EXPECT_LE(total, pool);
  }
}

// ---------------------------------------------------------------------------
// Per-job metric prefixes: each job records through a prefixing view.

TEST(FleetMetrics, PrefixedJobsShareOneRegistryWithoutCollisions) {
  obs::MetricsRegistry registry;
  const std::vector<int> series{4, 4, 3, 4, 2, 4};
  for (int j = 0; j < 2; ++j) {
    const std::string prefix = "job" + std::to_string(j) + ".";
    obs::MetricsRegistry job_metrics(registry, prefix);
    const SpotTrace lease = SpotTrace::from_minute_series(
        "lease:" + prefix + "GPT-2", series, 8, 60.0);
    ParcaePolicyOptions popt;
    popt.lookahead = 3;
    popt.history = 4;
    popt.mc_trials = 4;
    popt.seed = fleet_job_seed(42, j);
    popt.max_instances = 8;
    popt.metrics = &job_metrics;
    ParcaePolicy policy(gpt2_profile(), popt, &lease);
    SimulationOptions sopt;
    sopt.record_timeline = false;
    sopt.metrics = &job_metrics;
    simulate(policy, lease, sopt);
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  // Each job's scheduler stream lands under its own prefix ...
  EXPECT_EQ(snap.counters.at("job0.scheduler.intervals"), 6.0);
  EXPECT_EQ(snap.counters.at("job1.scheduler.intervals"), 6.0);
  EXPECT_GT(snap.counters.at("job0.sim.intervals"), 0.0);
  EXPECT_GT(snap.counters.at("job1.sim.intervals"), 0.0);
  // ... and nothing leaks into the historical unprefixed names.
  EXPECT_EQ(snap.counters.count("scheduler.intervals"), 0u);
  EXPECT_EQ(snap.counters.count("sim.intervals"), 0u);
}

// ---------------------------------------------------------------------------
// Fleet simulation: determinism, fairness, and the headline win.

FleetSimOptions smoke_options() {
  FleetSimOptions options;
  options.fleet_seed = 42;
  options.lookahead = 4;
  options.history = 6;
  options.mc_trials = 4;
  return options;
}

TEST(FleetSim, ReplaysBitForBit) {
  const SpotTrace pool = canonical_segment(TraceSegment::kLowAvailDense);
  const auto run = [&pool] {
    FleetSimulator sim(fleet::standard_fleet(6), smoke_options());
    return sim.run(pool);
  };
  const FleetSimResult a = run();
  const FleetSimResult b = run();
  EXPECT_DOUBLE_EQ(a.weighted_liveput, b.weighted_liveput);
  EXPECT_DOUBLE_EQ(a.weighted_share_deviation, b.weighted_share_deviation);
  EXPECT_EQ(a.lease_grants, b.lease_grants);
  EXPECT_EQ(a.lease_revocations, b.lease_revocations);
  ASSERT_EQ(a.per_job.size(), b.per_job.size());
  for (std::size_t j = 0; j < a.per_job.size(); ++j) {
    EXPECT_EQ(a.per_job[j].grants, b.per_job[j].grants);
    EXPECT_DOUBLE_EQ(a.per_job[j].committed_samples,
                     b.per_job[j].committed_samples);
  }
}

TEST(FleetSim, JobsRecordThroughPrefixedViews) {
  // Every job's scheduler and simulator record under "job<j>.", and
  // nothing lands under the fixed names themselves.
  obs::MetricsRegistry registry;
  FleetSimOptions options = smoke_options();
  options.metrics = &registry;
  const SpotTrace pool = canonical_segment(TraceSegment::kHighAvailSparse);
  FleetSimulator sim(fleet::standard_fleet(3), options);
  const FleetSimResult r = sim.run(pool);
  ASSERT_GT(r.intervals, 0);
  for (int j = 0; j < 3; ++j) {
    const std::string job = "job" + std::to_string(j) + ".";
    EXPECT_EQ(r.metrics.counter_or(job + "scheduler.intervals"), r.intervals);
    EXPECT_EQ(r.metrics.counter_or(job + "sim.intervals"), r.intervals);
  }
  const auto unprefixed = [](const std::string& name) {
    return name.rfind("scheduler.", 0) == 0 || name.rfind("sim.", 0) == 0;
  };
  for (const auto& [name, value] : r.metrics.counters)
    EXPECT_FALSE(unprefixed(name)) << name;
  for (const auto& [name, value] : r.metrics.gauges)
    EXPECT_FALSE(unprefixed(name)) << name;
  for (const auto& [name, stats] : r.metrics.histograms)
    EXPECT_FALSE(unprefixed(name)) << name;
}

TEST(FleetSim, PoolShorterThanOneIntervalRuns) {
  // Too short to sample one whole interval: every job's lease is an
  // empty series, and both regimes still run (to nothing).
  for (const double duration_s : {20.0, 30.0}) {
    const SpotTrace pool("blip", 8, 32, duration_s, {});
    ASSERT_TRUE(pool.availability_series(60.0).empty());
    FleetSimulator sim(fleet::standard_fleet(3), smoke_options());
    for (const FleetSimResult& r : {sim.run(pool), sim.run_static(pool)}) {
      EXPECT_EQ(r.intervals, 0);
      EXPECT_EQ(r.weighted_liveput, 0.0);
      ASSERT_EQ(r.per_job.size(), 3u);
      for (const fleet::FleetJobResult& job : r.per_job) {
        EXPECT_TRUE(job.grants.empty());
        EXPECT_EQ(job.committed_samples, 0.0);
        EXPECT_EQ(job.normalized_liveput, 0.0);
      }
    }
  }
  // A last partial interval does not count: a 90 s pool runs one
  // interval, and each job's liveput is normalized over its 60 s.
  const SpotTrace pool("blip", 8, 32, 90.0, {});
  FleetSimulator sim(fleet::standard_fleet(3), smoke_options());
  for (const FleetSimResult& r : {sim.run(pool), sim.run_static(pool)}) {
    EXPECT_EQ(r.intervals, 1);
    double committed = 0.0;
    for (const fleet::FleetJobResult& job : r.per_job) {
      ASSERT_EQ(job.grants.size(), 1u);
      const ThroughputModel tm(model_by_name(job.model), {});
      const double reference = tm.throughput(tm.best_config(32));
      EXPECT_DOUBLE_EQ(job.normalized_liveput,
                       job.committed_samples / 60.0 / reference);
      committed += job.committed_samples;
    }
    EXPECT_GT(committed, 0.0);
  }
}

TEST(FleetSim, StaticSlicesApportionByWeight) {
  FleetSimulator sim(fleet::standard_fleet(4), smoke_options());
  // Weights cycle 1.0/2.0/1.0/0.5 → quotas 7.1/14.2/7.1/3.6 of 32.
  const std::vector<int> slices = sim.static_slices(32);
  int total = 0;
  for (const int s : slices) total += s;
  EXPECT_EQ(total, 32);
  EXPECT_GT(slices[1], slices[0]);
  EXPECT_GT(slices[0], slices[3]);
}

TEST(FleetSim, TenJobArbiterBeatsStaticPartitioning) {
  // The acceptance bar: on a Table-1 trace with 10 heterogeneous jobs,
  // arbiter-managed leases beat static partitioning on aggregate
  // weighted liveput, while staying close to the weighted fair share.
  const SpotTrace pool = canonical_segment(TraceSegment::kLowAvailDense);
  FleetSimulator sim(fleet::standard_fleet(10), smoke_options());
  const FleetSimResult arbiter = sim.run(pool);
  const FleetSimResult baseline = sim.run_static(pool);
  EXPECT_GT(arbiter.weighted_liveput, baseline.weighted_liveput);
  // Golden: the seeded aggregate is frozen (like the fig09a/table2
  // goldens) so arbiter/scheduler changes that move fleet numbers are
  // deliberate, not accidental.
  EXPECT_EQ(format_double(arbiter.weighted_liveput, 4), "1.5104");
  EXPECT_EQ(format_double(baseline.weighted_liveput, 4), "1.2865");
  // Fairness: on average, at most a third of the pool sits away from
  // the weighted water-fill target.
  EXPECT_LT(arbiter.weighted_share_deviation, 0.34);
  // Most jobs got instances at some point. (In a scarce pool the swap
  // loop may park duplicate jobs of a deep-pipeline model at zero —
  // an instance below the model's minimum feasible depth commits
  // nothing, so the objective moves it where it produces; the share
  // deviation bound above is the fairness backstop.)
  int served = 0;
  for (const auto& job : arbiter.per_job)
    if (job.mean_grant > 0.0) ++served;
  EXPECT_GE(served, 7);
}

}  // namespace
}  // namespace parcae
