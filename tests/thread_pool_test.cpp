// ThreadPool: determinism by index, exception propagation, inline
// serial path, pool reuse, and thread-count resolution.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace parcae {
namespace {

TEST(ThreadPool, ParallelForWritesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  std::vector<std::size_t> result(n, 0);
  pool.parallel_for(n, [&](std::size_t i) {
    ++hits[i];
    result[i] = i * i;
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], 1) << i;
    EXPECT_EQ(result[i], i * i) << i;
  }
  EXPECT_EQ(pool.tasks_run(), n);
}

TEST(ThreadPool, ResultsIdenticalAcrossThreadCounts) {
  // The same indexed body must produce byte-identical output layouts
  // at 1, 2, and 8 threads.
  const std::size_t n = 257;
  auto run = [&](int threads) {
    ThreadPool pool(threads);
    std::vector<double> out(n, 0.0);
    pool.parallel_for(n, [&](std::size_t i) {
      out[i] = static_cast<double>(i) * 1.5 + 1.0;
    });
    return out;
  };
  const std::vector<double> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      pool.parallel_for(100, [&](std::size_t i) {
        if (i == 7 || i == 63) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Deterministic pick: always the lowest-index failure.
      EXPECT_STREQ(e.what(), "7");
    }
  }
}

TEST(ThreadPool, SerialPoolRunsInlineAndPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // inline: strictly in order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_THROW(
      pool.parallel_for(3,
                        [](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
}

TEST(ThreadPool, PoolReuseAcrossManyLoops) {
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(64, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 50L * (64L * 63L / 2));
  EXPECT_EQ(pool.tasks_run(), 50u * 64u);
}

TEST(ThreadPool, EnvThreadsParsing) {
  ASSERT_EQ(setenv("PARCAE_THREADS", "6", 1), 0);
  EXPECT_EQ(ThreadPool::env_threads(1), 6);
  EXPECT_EQ(ThreadPool::resolve(0), 6);
  EXPECT_EQ(ThreadPool::resolve(3), 3);  // explicit request wins
  ASSERT_EQ(setenv("PARCAE_THREADS", "garbage", 1), 0);
  EXPECT_EQ(ThreadPool::env_threads(2), 2);
  ASSERT_EQ(setenv("PARCAE_THREADS", "-4", 1), 0);
  EXPECT_EQ(ThreadPool::env_threads(2), 2);
  ASSERT_EQ(unsetenv("PARCAE_THREADS"), 0);
  EXPECT_EQ(ThreadPool::env_threads(5), 5);
  EXPECT_GE(ThreadPool::resolve(0), 1);
}

TEST(ThreadPool, ZeroIterationLoopIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.tasks_run(), 0u);
}

}  // namespace
}  // namespace parcae
