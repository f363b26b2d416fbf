// Deterministic fault injection for the real runtime (§8 exception
// handling).
//
// The happy path alone cannot defend Parcae's semantics claims —
// exactly-once samples and replica consistency matter precisely when
// preemptions are *unpredicted*, land mid-migration, or a ParcaePS
// push fails. A FaultInjector holds named fault points ("ps.push",
// "cluster.kill_mid_iteration", ...) armed with per-point triggers:
// fire with probability p, on exactly the nth evaluation, at most k
// times, only inside an interval window, or once ever. Evaluation is
// deterministic: each point draws from its own Rng forked from the
// injector seed and the point name, so arming one point never
// perturbs another and a seeded chaos schedule replays bit-for-bit.
//
// Consumers hold a nullable FaultInjector*; with no injector (or no
// armed points) every check is a null/absent-key test and zero RNG
// draws, so fault-free runs stay bit-identical to builds that never
// heard of this header. Specs come from code (arm()), or from a
// binary's faults= key or PARCAE_FAULTS environment variable, which
// only the binaries read:
//
//   PARCAE_FAULTS="ps.push:prob=0.1;cluster.kill_mid_iteration:nth=3,once"
//
// Every firing increments fault.injected and fault.injected.<point>
// in the attached MetricsRegistry, so an injected run is auditable.
//
// Locking rules: a single mutex guards the point table, every
// evaluation, and every counter read — the TCP transport evaluates
// rpc.* points from its server thread while the driver thread
// evaluates kv.*/ps.* points on the same injector. Determinism is
// unaffected: each point's stream is a pure function of its own hit
// count, and the runtime's RPCs are synchronous ping-pong, so the
// per-point hit order is identical with or without contention.
// set_interval/set_metrics are configuration, called before threads
// start.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "common/rng.h"

namespace parcae {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// Thrown by maybe_throw() at an armed fault point.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(std::string point, std::uint64_t hit);
  const std::string& point() const { return point_; }
  // 1-based evaluation count at which the fault fired.
  std::uint64_t hit() const { return hit_; }

 private:
  std::string point_;
  std::uint64_t hit_;
};

// When a point fires. Conditions combine conjunctively: the window
// must admit the current interval AND (nth matches OR the probability
// draw succeeds), subject to the one-shot / max-fires budget.
struct FaultTrigger {
  double probability = 0.0;   // fires when the point's rng draws < p
  std::uint64_t nth = 0;      // fires on exactly the nth evaluation; 0 = off
  bool one_shot = false;      // disarm after the first firing
  std::uint64_t max_fires = 0;  // total firing budget; 0 = unlimited
  int window_begin = 0;       // first interval (inclusive) the point is live
  int window_end = -1;        // last interval (inclusive); -1 = unbounded
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0);

  // Arms (or re-arms) a fault point. Resets its hit/fire counts.
  void arm(const std::string& point, FaultTrigger trigger);
  void disarm(const std::string& point);

  // Parses and arms a spec string:
  //   spec    := point-spec (';' point-spec)*
  //   point   := name ':' option (',' option)*
  //   option  := 'prob=' float | 'nth=' int | 'max=' int
  //            | 'window=' int '-' int | 'once'
  // Returns false (arming nothing further) on a malformed spec and
  // describes the problem in *error.
  bool arm_from_spec(const std::string& spec, std::string* error = nullptr);

  // The interval-window clock; executor backends set it each interval.
  void set_interval(int interval) { interval_ = interval; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  // Evaluates the point; true when the fault fires now. Unarmed
  // points never fire and consume no randomness.
  bool should_fire(std::string_view point);
  // should_fire(), throwing InjectedFault on a firing.
  void maybe_throw(std::string_view point);

  // Deterministic victim-selection stream (uniform on [0, n)), kept
  // separate from the trigger streams so consumers can pick kill
  // targets without perturbing firing schedules.
  std::uint64_t pick(std::uint64_t n);

  bool armed() const;
  // Evaluations / firings of one point so far (0 when never armed).
  std::uint64_t hits(std::string_view point) const;
  std::uint64_t fired(std::string_view point) const;
  std::uint64_t total_fired() const;

  // Human-readable list of armed points ("a, b, c"), for banners.
  std::string describe() const;

 private:
  struct Point {
    FaultTrigger trigger;
    Rng rng;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    bool disarmed = false;
  };

  // Evaluates under mu_; returns {fired, hit count at evaluation}.
  std::pair<bool, std::uint64_t> evaluate_locked(std::string_view point);

  // Behind a pointer so the injector stays movable (a moved-from
  // injector is dead; only construction-time moves happen in practice).
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::uint64_t seed_;
  Rng pick_rng_;
  int interval_ = 0;
  std::uint64_t total_fired_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, Point, std::less<>> points_;
};

}  // namespace parcae
