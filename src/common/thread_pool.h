// Fixed-size worker pool for embarrassingly parallel loops (the
// experiment matrix's cells).
//
// Design constraints, in order:
//   1. Determinism. parallel_for(n, body) indexes every task; bodies
//      write results by index, so the output layout is identical at
//      any thread count. When several bodies throw, the exception
//      with the lowest index is the one rethrown.
//   2. No surprises at threads == 1. A pool of size 1 spawns no
//      worker threads at all: parallel_for() runs inline on the
//      caller, byte-for-byte the serial code path.
//   3. Caller participation. parallel_for's calling thread drains the
//      same index counter as the workers, so a pool of size T applies
//      T CPUs (T-1 workers + the caller), and nested/reentrant use
//      cannot deadlock (the caller always makes progress itself).
//
// Thread-count resolution follows one convention everywhere:
// `resolve(requested)` returns `requested` when > 0, else the
// PARCAE_THREADS environment variable when set to a positive integer,
// else std::thread::hardware_concurrency(). The experiment matrix
// defaults to resolve(0).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parcae {

class ThreadPool {
 public:
  // `threads` <= 0 resolves via resolve(threads).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // parallel_for bodies executed so far; callers mirror this into the
  // "threadpool.tasks" metric.
  std::uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  // Invoke body(0) .. body(n-1), returning after all complete. Bodies
  // run concurrently in unspecified order; anything they write must be
  // disjoint per index. If bodies throw, the lowest-index exception is
  // rethrown (deterministically) after the loop finishes.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

  static int hardware_threads();
  // PARCAE_THREADS when set to a positive integer, else `fallback`.
  static int env_threads(int fallback);
  // requested > 0 -> requested; else env_threads(hardware_threads()).
  static int resolve(int requested);

 private:
  void enqueue(std::function<void()> fn);
  void worker_loop();

  int threads_ = 1;
  std::vector<std::thread> workers_;  // threads_ - 1 of them
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::atomic<std::uint64_t> tasks_run_{0};
};

}  // namespace parcae
