// Tests for the runtime substrate: the etcd-like KV store, the sample
// manager's exactly-once guarantee, ParcaePS gradient mirroring, the
// cluster simulator's ledgers, and the ParcaePolicy loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "baselines/ondemand_policy.h"
#include "model/model_profile.h"
#include "nn/dataset.h"
#include "nn/mlp.h"
#include "runtime/cluster_sim.h"
#include "runtime/kv_store.h"
#include "runtime/parcae_policy.h"
#include "runtime/parcae_ps.h"
#include "runtime/sample_manager.h"

namespace parcae {
namespace {

// ---------------------------------------------------------------------------
// KvStore.

TEST(KvStore, PutGetErase) {
  KvStore kv;
  EXPECT_FALSE(kv.get("a").has_value());
  kv.put("a", "1");
  ASSERT_TRUE(kv.get("a").has_value());
  EXPECT_EQ(kv.get("a")->value, "1");
  EXPECT_TRUE(kv.erase("a"));
  EXPECT_FALSE(kv.erase("a"));
}

TEST(KvStore, VersionsAreMonotonic) {
  KvStore kv;
  const auto v1 = kv.put("k", "x");
  const auto v2 = kv.put("k", "y");
  EXPECT_GT(v2, v1);
  EXPECT_EQ(kv.revision(), v2);
}

TEST(KvStore, CasEnforcesExpectedVersion) {
  KvStore kv;
  EXPECT_TRUE(kv.cas("job/config", 0, "2x8"));   // create
  EXPECT_FALSE(kv.cas("job/config", 0, "4x4"));  // stale create
  const auto v = kv.get("job/config")->version;
  EXPECT_TRUE(kv.cas("job/config", v, "4x4"));
  EXPECT_EQ(kv.get("job/config")->value, "4x4");
}

TEST(KvStore, ListByPrefix) {
  KvStore kv;
  kv.put("agents/1", "a");
  kv.put("agents/2", "b");
  kv.put("ps/0", "c");
  const auto agents = kv.list("agents/");
  ASSERT_EQ(agents.size(), 2u);
  EXPECT_EQ(agents[0], "agents/1");
  EXPECT_EQ(agents[1], "agents/2");
}

TEST(KvStore, WatchFiresOnPrefixOnly) {
  KvStore kv;
  int hits = 0;
  const auto id = kv.watch("agents/", [&](const std::string&, const KvEntry&) {
    ++hits;
  });
  kv.put("agents/7", "up");
  kv.put("ps/0", "up");
  EXPECT_EQ(hits, 1);
  kv.unwatch(id);
  kv.put("agents/7", "down");
  EXPECT_EQ(hits, 1);
}

// ---------------------------------------------------------------------------
// SampleManager.

TEST(SampleManager, LeaseCommitDrainsEpoch) {
  SampleManager sm(100, 1);
  std::set<std::size_t> seen;
  while (true) {
    const auto lease = sm.lease(32);
    if (lease.id == 0) break;
    for (auto s : lease.samples) EXPECT_TRUE(seen.insert(s).second);
    sm.commit(lease.id);
  }
  EXPECT_TRUE(sm.epoch_complete());
  EXPECT_EQ(seen.size(), 100u);
}

TEST(SampleManager, AbortedSamplesAreRetrained) {
  SampleManager sm(10, 2, /*shuffle=*/false);
  const auto a = sm.lease(4);
  const auto b = sm.lease(4);
  sm.commit(a.id);
  sm.abort(b.id);  // preemption destroyed this mini-batch
  std::set<std::size_t> retrained;
  while (true) {
    const auto lease = sm.lease(4);
    if (lease.id == 0) break;
    for (auto s : lease.samples) retrained.insert(s);
    sm.commit(lease.id);
  }
  EXPECT_TRUE(sm.epoch_complete());
  // The aborted batch's samples all came back.
  for (auto s : b.samples) EXPECT_TRUE(retrained.count(s));
}

TEST(SampleManager, CommitAndAbortAreIdempotentOnUnknownIds) {
  SampleManager sm(8, 1);
  sm.commit(999);
  sm.abort(999);
  EXPECT_EQ(sm.committed_count(), 0u);
}

TEST(SampleManager, EpochAdvancesAndReshuffles) {
  SampleManager sm(16, 3);
  auto drain = [&] {
    std::vector<std::size_t> order;
    while (true) {
      const auto lease = sm.lease(16);
      if (lease.id == 0) break;
      order = lease.samples;
      sm.commit(lease.id);
    }
    return order;
  };
  const auto first = drain();
  EXPECT_TRUE(sm.epoch_complete());
  sm.start_next_epoch();
  EXPECT_EQ(sm.epoch(), 1u);
  const auto second = drain();
  EXPECT_NE(first, second);  // reshuffled
  auto sorted1 = first, sorted2 = second;
  std::sort(sorted1.begin(), sorted1.end());
  std::sort(sorted2.begin(), sorted2.end());
  EXPECT_EQ(sorted1, sorted2);  // same sample set
}

// Property: any interleaving of lease/commit/abort trains each sample
// exactly once per epoch.
class SampleManagerChaosTest : public ::testing::TestWithParam<std::uint64_t> {
};

INSTANTIATE_TEST_SUITE_P(Seeds, SampleManagerChaosTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST_P(SampleManagerChaosTest, ExactlyOncePerEpochUnderRandomAborts) {
  Rng rng(GetParam());
  const std::size_t epoch = 257;  // deliberately not batch-aligned
  SampleManager sm(epoch, GetParam());
  std::vector<SampleManager::Lease> in_flight;
  int guard = 0;
  while (!sm.epoch_complete() && ++guard < 100000) {
    const double roll = rng.uniform();
    if (roll < 0.5 || in_flight.empty()) {
      const auto lease = sm.lease(1 + rng.uniform_int(16ull));
      if (lease.id != 0) in_flight.push_back(lease);
    } else if (roll < 0.8) {
      const auto idx = rng.uniform_int(in_flight.size());
      sm.commit(in_flight[idx].id);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      const auto idx = rng.uniform_int(in_flight.size());
      sm.abort(in_flight[idx].id);
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  ASSERT_TRUE(sm.epoch_complete());
  const auto& committed = sm.committed_samples();
  EXPECT_EQ(committed.size(), epoch);
  std::set<std::size_t> unique(committed.begin(), committed.end());
  EXPECT_EQ(unique.size(), epoch);  // exactly once each
}

// ---------------------------------------------------------------------------
// ParcaePS.

TEST(ParcaePs, MirrorsTrainerExactly) {
  // Trainer and PS apply the same gradients with the same Adam
  // hyper-parameters: the PS checkpoint must track the trainer's
  // parameters bit-for-bit (the §9.3 design).
  const auto ds = nn::make_blobs(64, 4, 2, 0.3, 5);
  nn::Mlp trainer({4, 16, 2}, std::make_unique<nn::Adam>(0.01f), 9);
  ParcaePs ps(trainer.flat_parameters(), 0.01f);
  std::vector<std::size_t> idx(64);
  for (std::size_t i = 0; i < 64; ++i) idx[i] = i;
  const auto x = ds.gather(idx);
  const auto y = ds.gather_labels(idx);
  for (int it = 0; it < 12; ++it) {
    trainer.train_batch(x, y);
    ps.push_gradients(trainer.flat_gradients());
  }
  EXPECT_EQ(ps.version(), 12);
  EXPECT_EQ(ps.parameters(), trainer.flat_parameters());
}

TEST(ParcaePs, RollbackRestoresTraining) {
  const auto ds = nn::make_blobs(64, 4, 2, 0.3, 5);
  nn::Mlp trainer({4, 16, 2}, std::make_unique<nn::Adam>(0.01f), 9);
  ParcaePs ps(trainer.flat_parameters(), 0.01f);
  std::vector<std::size_t> idx(64);
  for (std::size_t i = 0; i < 64; ++i) idx[i] = i;
  const auto x = ds.gather(idx);
  const auto y = ds.gather_labels(idx);
  for (int it = 0; it < 6; ++it) {
    trainer.train_batch(x, y);
    ps.push_gradients(trainer.flat_gradients());
  }
  // Stage wipe-out: rebuild the trainer from the PS checkpoint.
  nn::Mlp recovered({4, 16, 2}, std::make_unique<nn::Adam>(0.01f), 321);
  recovered.set_flat_parameters(ps.parameters());
  EXPECT_EQ(recovered.flat_parameters(), trainer.flat_parameters());
}

TEST(PsCostModel, GradientPushBeatsFullStateTraffic) {
  // The 5x claim: gradient bytes (2/param) vs fp16 Adam states
  // (~10/param as the paper counts them).
  EXPECT_LT(kPsGradBytesPerParam * 5.0, 10.01);
  EXPECT_GT(ps_sync_stall_s(1.5e9), 0.0);
  EXPECT_LT(ps_sync_stall_s(1.5e9), 1.0);
}

// ---------------------------------------------------------------------------
// Cluster simulator.

TEST(ClusterSim, FlatTraceMatchesAnalyticThroughput) {
  const ModelProfile m = bert_large_profile();
  OnDemandPolicy policy(m);
  SimulationOptions options;
  options.units_per_sample = m.tokens_per_sample;
  const SimulationResult r =
      simulate(policy, flat_trace(32, 1800.0), options);
  const double expect =
      policy.throughput_model().throughput(
          policy.throughput_model().best_config(32)) *
      1800.0;
  EXPECT_NEAR(r.committed_samples, expect, expect * 1e-9);
  EXPECT_DOUBLE_EQ(r.committed_units, r.committed_samples * 128.0);
}

TEST(ClusterSim, GpuHoursSumToCapacity) {
  const ModelProfile m = gpt2_profile();
  ParcaePolicy policy(m, {});
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  const SimulationResult r = simulate(policy, trace, {});
  const double capacity_h = trace.stats().avg_instances * 1.0;  // 1 hour
  EXPECT_NEAR(r.gpu_hours.total(), capacity_h, 0.02);
}

TEST(ClusterSim, MoneyMatchesIntegratedCapacity) {
  const ModelProfile m = gpt2_profile();
  ParcaePolicy policy(m, {});
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  SimulationOptions options;
  const SimulationResult r = simulate(policy, trace, options);
  const double gpu_hours = trace.stats().avg_instances;
  EXPECT_NEAR(r.spot_cost_usd,
              gpu_hours * options.pricing.spot_gpu_usd_per_hour, 0.05);
  EXPECT_NEAR(r.support_cost_usd,
              2 * options.pricing.ps_host_usd_per_hour, 1e-6);
  EXPECT_DOUBLE_EQ(r.total_cost_usd, r.spot_cost_usd + r.support_cost_usd);
}

TEST(ClusterSim, TimelineIsRecordedPerInterval) {
  ParcaePolicy policy(gpt2_profile(), {});
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailSparse);
  const SimulationResult r = simulate(policy, trace, {});
  ASSERT_EQ(r.timeline.size(), 60u);
  EXPECT_EQ(r.timeline.front().available, trace.initial_instances());
  double prev = 0.0;
  for (const auto& rec : r.timeline) {
    EXPECT_GE(rec.cumulative_samples, prev - 1e9 * 0.0);
    prev = rec.cumulative_samples;
  }
}

// ---------------------------------------------------------------------------
// ParcaePolicy behaviour.

TEST(ParcaePolicy, SteadyStateSettlesAtBestConfig) {
  const ModelProfile m = gpt2_profile();
  ParcaePolicy policy(m, {});
  const SimulationResult r = simulate(policy, flat_trace(24, 3600.0), {});
  // After warm-up the policy should sit at the throughput-optimal
  // config for 24 instances and commit close to the analytic optimum.
  ThroughputModel tm(m, {});
  const double bound = tm.throughput(tm.best_config(24)) * 3600.0;
  EXPECT_GT(r.committed_samples, bound * 0.9);
  EXPECT_EQ(r.timeline.back().config, tm.best_config(24));
}

TEST(ParcaePolicy, DeterministicForFixedSeed) {
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  ParcaePolicy a(gpt2_profile(), {});
  ParcaePolicy b(gpt2_profile(), {});
  const SimulationResult ra = simulate(a, trace, {});
  const SimulationResult rb = simulate(b, trace, {});
  EXPECT_DOUBLE_EQ(ra.committed_samples, rb.committed_samples);
}

TEST(ParcaePolicy, ResetMakesPolicyReusable) {
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailDense);
  ParcaePolicy policy(gpt2_profile(), {});
  const SimulationResult first = simulate(policy, trace, {});
  const SimulationResult second = simulate(policy, trace, {});
  EXPECT_DOUBLE_EQ(first.committed_samples, second.committed_samples);
}

TEST(ParcaePolicy, SuspendsWhenBelowMinimumDepth) {
  // GPT-3 needs 9 instances; a 6-instance cluster cannot train at all.
  ParcaePolicy policy(gpt3_profile(), {});
  const SimulationResult r = simulate(policy, flat_trace(6, 600.0), {});
  EXPECT_DOUBLE_EQ(r.committed_samples, 0.0);
  EXPECT_NEAR(r.gpu_hours.unutilized, 1.0, 1e-6);  // 6 GPUs x 10 min
}

TEST(ParcaePolicy, MigrationLogRecordsEvents) {
  ParcaePolicy policy(gpt2_profile(), {});
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  simulate(policy, trace, {});
  EXPECT_GT(policy.migration_log().size(), 0u);
  for (const auto& entry : policy.migration_log()) {
    EXPECT_GE(entry.actual_s, 0.0);
    EXPECT_GE(entry.estimated_s, 0.0);
  }
}

TEST(ParcaePolicy, CostNoiseSpreadsActualAroundEstimate) {
  ParcaePolicyOptions options;
  options.cost_noise_stddev = 0.08;
  ParcaePolicy policy(gpt2_profile(), options);
  simulate(policy, canonical_segment(TraceSegment::kLowAvailDense), {});
  bool any_different = false;
  for (const auto& entry : policy.migration_log()) {
    EXPECT_NEAR(entry.actual_s, entry.estimated_s,
                entry.estimated_s * 0.5 + 1e-9);
    any_different = any_different || entry.actual_s != entry.estimated_s;
  }
  EXPECT_TRUE(any_different);
}

TEST(ParcaePolicy, SupportCostCoversPsHosts) {
  ParcaePolicy policy(gpt2_profile(), {});
  EXPECT_NEAR(policy.support_cost_usd_per_hour(), 2 * 0.68, 1e-9);
}

}  // namespace
}  // namespace parcae
