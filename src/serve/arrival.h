// Request arrival generator for the serving workload (SpotServe
// direction; docs/serving.md).
//
// Serving generative models for "millions of users" means the request
// process, not a training dataset, drives the work: a base Poisson
// stream, a 2-state MMPP (Markov-modulated Poisson process) for
// bursty traffic, a diurnal rate envelope, and a trace-replay mode
// that follows a measured per-interval rate series. A simulated day at
// production rates is millions of requests, so generation is cheap per
// request: callers pass a reusable output buffer, and an interval's
// offsets are ordered by a counting pass into one bucket per offset
// plus an insertion pass — expected linear time, and exactly the
// vector std::sort would return. The sort's scratch (the drawn offsets
// and the bucket cursors) is allocated in each call, not kept in a
// mutable member, because the accessors below are const and
// thread-safe.
//
// Generation is, critically, deterministic with the same discipline
// as the MC preemption sampler (src/migration/preemption.*): every
// per-interval draw comes from an Rng forked from (seed, interval),
// i.e. a pure function of the seed and the interval index. Any thread
// may generate any interval in any order and the counts and arrival
// offsets are bit-identical to a serial sweep — the property
// tests/serve_test.cpp pins across threads 1/4/8 and against pinned
// digests.
//
// The only serial state is the MMPP modulation chain (one draw per
// interval), precomputed once by prepare(); after that every accessor
// is const and thread-safe.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace parcae::serve {

enum class ArrivalKind { kPoisson, kMmpp, kReplay };

const char* arrival_kind_name(ArrivalKind kind);

// Per-interval transition probabilities of the MMPP's 2-state burst
// chain.
inline constexpr double kPEnterBurst = 0.08;
inline constexpr double kPExitBurst = 0.35;

struct ArrivalOptions {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double interval_s = 60.0;
  std::uint64_t seed = 2024;
  // Base arrival rate (requests per second) before modulation.
  double base_rps = 40.0;
  // MMPP burst state: rate multiplier while bursting.
  double burst_multiplier = 3.0;
  // Diurnal envelope: rate *= max(0, 1 + amplitude * sin(2*pi * (t -
  // phase) / period)). amplitude = 0 disables it.
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 24.0 * 3600.0;
  double diurnal_phase_s = 0.0;
  // kReplay: measured per-interval request rates (rps), indexed by
  // interval; intervals beyond the vector repeat the last entry.
  std::vector<double> replay_rps;
};

class ArrivalGenerator {
 public:
  explicit ArrivalGenerator(ArrivalOptions options);

  // Precomputes the MMPP modulation chain for intervals [0, n). Serial
  // and cheap (one draw per interval); extends on repeated calls.
  // Poisson/replay modes need no preparation but accept it.
  void prepare(int intervals);

  // Mean rate (rps) a forecaster/operator would assume for the
  // interval: base * envelope, with the MMPP chain at its stationary
  // mean — the instantaneous burst state is not observable in advance.
  double expected_rps(int interval) const;

  // Realized modulated rate for the interval (burst state applied).
  // Requires prepare(>interval) in MMPP mode.
  double realized_rps(int interval) const;

  // Number of requests arriving in the interval: a Poisson draw from
  // the interval's own forked stream. Pure in (seed, interval).
  int count(int interval) const;

  // Arrival offsets within the interval, sorted ascending in
  // [0, interval_s), reusing `out`'s capacity. The same forked stream
  // as count(): the first draw reproduces count(), the offsets follow,
  // so count(i) == arrivals(i, ...).size() always.
  void arrivals(int interval, std::vector<double>& out) const;

  const ArrivalOptions& options() const { return options_; }
  int prepared_intervals() const { return static_cast<int>(burst_.size()); }

  // Mixing rate of the MMPP chain: the expected deviation from the
  // stationary burst mean shrinks by this factor per interval.
  static constexpr double burst_decay() {
    return 1.0 - kPEnterBurst - kPExitBurst;
  }

  // Sum of count(i) for i in [0, n) — total offered load.
  std::uint64_t total_requests(int intervals) const;

 private:
  double envelope(int interval) const;

  ArrivalOptions options_;
  // MMPP chain: burst_[i] = 1 when interval i is in the burst state.
  std::vector<std::uint8_t> burst_;
};

}  // namespace parcae::serve
