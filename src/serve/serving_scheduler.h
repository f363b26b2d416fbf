// ServingScheduler: Parcae's decision loop (SchedulerCore) with the
// serving objective (SpotServe direction; docs/serving.md).
//
// Serving is the training decision problem — pick a parallel
// configuration per look-ahead interval under predicted availability —
// with a different objective, GoodputObjective:
//   - a configuration {D, P} runs D serving replicas of a P-stage
//     pipeline and earns its expected *goodput* (requests served within
//     the latency SLO, from the M/G/1 estimator in queue_model.h) at the
//     interval's offered request rate,
//   - replacing a running configuration additionally pays the drain of
//     the outgoing replicas' in-flight requests,
//   - the load is the request rate: measured from the arrival
//     generator, forecast from its envelope and the observed burst
//     state,
//   - the §8 adaptation releases instances beyond the planned replica
//     count (goodput saturates at the offered load), the replica count
//     is bounded by the instances rather than the training micro-batch
//     split, and the depth hysteresis compares goodput.
// Everything else — damage mapping, migration planning, availability
// forecasts, the warm-started DP, events, spans and metrics — is the
// shared engine's.
//
// Four modes span the bench baselines:
//   kProactive — goodput DP over guarded-ARIMA availability forecasts
//   kOracle    — goodput DP over the true future availability
//   kReactive  — chases availability: goodput-best config for what is
//                available right now, no look-ahead (what a SpotServe-
//                less autoscaler does)
//   kStatic    — fixed provisioning chosen once, only damage-adapted
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/objective.h"
#include "core/scheduler_core.h"
#include "model/model_profile.h"
#include "serve/arrival.h"
#include "serve/queue_model.h"
#include "trace/spot_trace.h"

namespace parcae::serve {

enum class ServingMode { kProactive, kOracle, kReactive, kStatic };

const char* serving_mode_name(ServingMode mode);

struct ServingSchedulerOptions {
  ServingMode mode = ServingMode::kProactive;
  int lookahead = 12;
  int history = 12;
  int reoptimize_every = 1;
  // Event-driven re-optimization (mode=event in serve_sim_cli): same
  // semantics as SchedulerCoreOptions — re-solve on pending events
  // (preemptions/allocations) instead of every tick, with debounce
  // coalescing; interval 0 always solves.
  bool event_driven = false;
  double debounce_ms = 250.0;
  int mc_trials = 256;
  std::uint64_t seed = 123;
  double interval_s = 60.0;
  // Voluntary depth changes must improve estimated goodput by at
  // least this fraction (same thrash guard as training).
  double depth_change_hysteresis = 0.15;
  int max_instances = 32;
  // kStatic: the fixed provisioning. Invalid = choose the goodput-best
  // config for max_instances at the interval-0 expected rate.
  ParallelConfig static_config = kIdleConfig;
  ServingModelOptions serving;
  ThroughputModelOptions throughput;
  // Observability sinks (non-owning, optional), as in
  // SchedulerCoreOptions: the tracer receives the step, predict,
  // optimize and plan-migration spans.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* tracer = nullptr;
  std::string metric_prefix;
};

// The serving objective (see the file comment).
class GoodputObjective : public SchedulingObjective {
 public:
  // `arrivals` supplies the measured and forecast request rate (null:
  // no load) and must outlive the objective.
  GoodputObjective(const ModelProfile& model, ThroughputModelOptions throughput,
                   ServingModelOptions serving,
                   const ArrivalGenerator* arrivals, int max_instances);

  std::vector<ParallelConfig> candidates(int n) const override {
    return queue_.enumerate_serving_configs(n);
  }
  double rate(ParallelConfig config, double rps) const override {
    return queue_.goodput(config, rps);
  }
  double switch_cost(ParallelConfig from, double rps) const override {
    return queue_.drain_cost_s(from, rps);
  }
  ParallelConfig best_config(int n, double rps) const override {
    return queue_.best_serving_config(n, rps);
  }
  // The measured request rate: the realized MMPP rate once prepared,
  // the envelope otherwise — what an autoscaler observes.
  double load(int interval) const override;
  // Conditional-mean forecast: the measured deviation from the rate
  // envelope (the observable burst state) relaxes geometrically to the
  // stationary mean at the MMPP chain's mixing rate, so the DP sizes
  // for the burst while it is expected to last and for the mean after.
  std::vector<double> forecast_load(int interval, int horizon) const override;

  const ReplicaQueueModel& queue_model() const { return queue_; }

 private:
  ThroughputModel throughput_;
  ReplicaQueueModel queue_;  // over throughput_
  const ArrivalGenerator* arrivals_;
};

class ServingScheduler {
 public:
  // `arrivals` supplies the rate forecasts and must outlive the
  // scheduler; `oracle` is required for kOracle.
  ServingScheduler(ModelProfile model, ServingSchedulerOptions options,
                   const ArrivalGenerator* arrivals,
                   const SpotTrace* oracle = nullptr);

  // The shared loop's advice; plan.cost.drain_s is the drain component
  // of stall_s.
  SchedulerDecision step(int interval_index,
                         const AvailabilityObservation& observed,
                         double interval_s) {
    return core_.step(interval_index, observed, interval_s);
  }

  const ServingSchedulerOptions& options() const { return options_; }
  const ReplicaQueueModel& queue_model() const {
    return objective_.queue_model();
  }
  // The decision loop itself: metrics, the event log (events.jsonl),
  // notify_event() for event-driven mode.
  SchedulerCore& core() { return core_; }

 private:
  ServingSchedulerOptions options_;
  GoodputObjective objective_;
  SchedulerCore core_;
};

}  // namespace parcae::serve
