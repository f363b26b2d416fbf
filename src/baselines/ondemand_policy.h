// On-demand baseline: a fixed fleet of dedicated instances, the
// throughput-optimal configuration, no preemptions, no stalls. Run it
// over flat_trace() and price it with
// SimulationOptions::instances_are_ondemand = true.
#pragma once

#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"

namespace parcae {

// A constant-availability trace (for the on-demand baseline).
SpotTrace flat_trace(int instances, double duration_s,
                     const std::string& name = "on-demand");

class OnDemandPolicy final : public SpotTrainingPolicy {
 public:
  explicit OnDemandPolicy(ModelProfile model);

  std::string name() const override { return "On-Demand"; }
  void reset() override {}
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;

  const ThroughputModel& throughput_model() const { return throughput_; }

 private:
  ModelProfile model_;
  ThroughputModel throughput_;
};

}  // namespace parcae
