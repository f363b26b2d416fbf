// Cross-module property tests: randomized round-trips, physical
// bounds, and invariants swept over wide parameter ranges.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "core/liveput.h"
#include "migration/planner.h"
#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/kv_store.h"
#include "trace/trace_io.h"

namespace parcae {
namespace {

// ---------------------------------------------------------------------------
// Randomized round-trips.

TEST(Property, RandomTracesSurviveCsvRoundTrip) {
  Rng rng(2718);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = 4 + static_cast<int>(rng.uniform_int(29ull));
    const int initial = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(capacity) + 1));
    const double duration = rng.uniform(300.0, 7200.0);
    std::vector<TraceEvent> events;
    const int n_events = static_cast<int>(rng.uniform_int(20ull));
    for (int e = 0; e < n_events; ++e)
      events.push_back({rng.uniform(0.0, duration),
                        static_cast<int>(rng.uniform_int(-4, 4))});
    const SpotTrace trace("fuzz", initial, capacity, duration,
                          std::move(events));
    const auto loaded = trace_from_csv(trace_to_csv(trace));
    ASSERT_TRUE(loaded.has_value()) << "trial " << trial;
    EXPECT_EQ(loaded->availability_series(30.0),
              trace.availability_series(30.0))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Physical bounds.

class ZooBoundsTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Zoo, ZooBoundsTest,
                         ::testing::Range<std::size_t>(0, 5));

TEST_P(ZooBoundsTest, ThroughputNeverExceedsComputeBound) {
  // No configuration can exceed perfect scaling of the sustained
  // per-GPU FLOP rate over the instances it uses.
  const ModelProfile m = model_zoo()[GetParam()];
  const ThroughputModel tm(m, {});
  for (const auto& c : tm.enumerate_configs(32)) {
    const double bound = c.instances() * m.effective_flops /
                         m.train_flops_per_sample();
    EXPECT_LE(tm.throughput(c), bound * (1.0 + 1e-9))
        << m.name << " " << c.to_string();
  }
}

TEST_P(ZooBoundsTest, LiveputNeverExceedsThroughput) {
  const ModelProfile m = model_zoo()[GetParam()];
  const ThroughputModel tm(m, {});
  PreemptionSampler sampler(42, 256);
  const LiveputEstimator est(&tm, &sampler);
  const ParallelConfig best = tm.best_config(24);
  if (!best.valid()) return;
  for (int k = 0; k <= 6; ++k) {
    EXPECT_LE(est.liveput(best, 24 - best.instances(), k),
              tm.throughput(best) + 1e-9)
        << m.name << " k=" << k;
    EXPECT_LE(est.liveput_with_inter_stage(best, 24 - best.instances(), k),
              tm.throughput(best) + 1e-9);
  }
}

TEST(Property, AdaptationAlwaysFeasible) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const int available = static_cast<int>(rng.uniform_int(0, 40));
    const int min_depth = static_cast<int>(rng.uniform_int(1, 12));
    const int max_depth =
        min_depth + static_cast<int>(rng.uniform_int(0, 20));
    const int max_pipelines = static_cast<int>(rng.uniform_int(1, 64));
    const ParallelConfig desired{
        static_cast<int>(rng.uniform_int(0, 8)),
        static_cast<int>(rng.uniform_int(0, 20))};
    const ParallelConfig adapted = adapt_configuration(
        desired, available, min_depth, max_depth, max_pipelines);
    if (adapted.valid()) {
      EXPECT_LE(adapted.instances(), available);
      EXPECT_GE(adapted.pp, min_depth);
      EXPECT_LE(adapted.dp, max_pipelines);
    } else {
      // Suspension is only allowed when even the minimum pipeline
      // cannot be formed.
      EXPECT_LT(available, min_depth);
    }
  }
}

// ---------------------------------------------------------------------------
// Infrastructure.

TEST(Property, RngForkProducesIndependentStreams) {
  Rng parent(123);
  Rng child = parent.fork();
  // Streams differ from each other and from the continued parent.
  int equal_child = 0;
  for (int i = 0; i < 64; ++i)
    equal_child += parent.next_u64() == child.next_u64() ? 1 : 0;
  EXPECT_LT(equal_child, 4);
  // Forking is deterministic: same parent state -> same child.
  Rng p1(9), p2(9);
  Rng c1 = p1.fork();
  Rng c2 = p2.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Property, KvStoreIsThreadSafeUnderContention) {
  KvStore kv;
  std::atomic<int> watch_hits{0};
  kv.watch("contended/", [&](const std::string&, const KvEntry&) {
    watch_hits.fetch_add(1);
  });
  constexpr int kThreads = 4;
  constexpr int kWrites = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv, t] {
      for (int i = 0; i < kWrites; ++i)
        kv.put("contended/" + std::to_string(t), std::to_string(i));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(watch_hits.load(), kThreads * kWrites);
  EXPECT_EQ(kv.revision(), static_cast<std::uint64_t>(kThreads * kWrites));
  for (int t = 0; t < kThreads; ++t) {
    const auto entry = kv.get("contended/" + std::to_string(t));
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->value, std::to_string(kWrites - 1));
  }
}

TEST(Property, KvStoreCasLinearizesCounters) {
  KvStore kv;
  kv.put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&kv] {
      for (int i = 0; i < kIncrements; ++i) {
        while (true) {
          const auto entry = kv.get("counter");
          const int value = std::stoi(entry->value);
          if (kv.cas("counter", entry->version, std::to_string(value + 1)))
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(kv.get("counter")->value,
            std::to_string(kThreads * kIncrements));
}

}  // namespace
}  // namespace parcae
