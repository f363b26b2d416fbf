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

#include <vector>

#include "core/objective.h"
#include "core/scheduler_core.h"
#include "model/model_profile.h"
#include "serve/arrival.h"
#include "serve/queue_model.h"
#include "trace/spot_trace.h"

namespace parcae::serve {

// The serving modes are the core's (see the file comment).
using ServingMode = PredictionMode;

const char* serving_mode_name(ServingMode mode);

// Every decision knob is the core's; serving adds only its request
// model. kStatic with an invalid static_config chooses the goodput-best
// config for max_instances at the interval-0 expected rate.
struct ServingSchedulerOptions : SchedulerCoreOptions {
  ServingModelOptions serving;
};

// The serving objective (see the file comment).
class GoodputObjective : public SchedulingObjective {
 public:
  // `arrivals` supplies the measured and forecast request rate (null:
  // no load) and must outlive the objective.
  GoodputObjective(const ModelProfile& model, ServingModelOptions serving,
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
  // scheduler; `oracle` is required for kOracle, whose core copies its
  // availability series at construction.
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
