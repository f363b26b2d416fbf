#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

namespace parcae {

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ThreadPool::env_threads(int fallback) {
  const char* env = std::getenv("PARCAE_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v <= 0) return fallback;
  return static_cast<int>(v);
}

int ThreadPool::resolve(int requested) {
  if (requested > 0) return requested;
  return env_threads(hardware_threads());
}

ThreadPool::ThreadPool(int threads) : threads_(resolve(threads)) {
  if (threads_ < 1) threads_ = 1;
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  if (workers_.empty()) {
    fn();  // threads == 1: the caller is the pool
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    // Serial path: run inline, rethrow the first exception in index
    // order naturally.
    for (std::size_t i = 0; i < n; ++i) body(i);
    tasks_run_.fetch_add(n, std::memory_order_relaxed);
    return;
  }

  struct ForState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* body = nullptr;
    // Slot i is written only by the thread that ran body(i); read
    // after the completion barrier.
    std::vector<std::exception_ptr> errors;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->body = &body;
  state->errors.assign(n, nullptr);

  auto drain = [state, this] {
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      try {
        (*state->body)(i);
      } catch (...) {
        state->errors[i] = std::current_exception();
      }
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  const std::size_t helpers =
      std::min(workers_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) enqueue(drain);
  drain();  // the caller participates

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->n;
  });
  lock.unlock();

  for (std::size_t i = 0; i < n; ++i)
    if (state->errors[i]) std::rethrow_exception(state->errors[i]);
}

}  // namespace parcae
