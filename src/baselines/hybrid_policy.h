// Snape-style hybrid baseline (related work, §11): mix a small
// *on-demand* core with spot expansion. The on-demand core (P
// instances, one full pipeline) can never be preempted, so training
// always makes progress; spot instances add data-parallel pipelines on
// top. Costs mix the two price classes. This quantifies the obvious
// alternative to Parcae: "just buy a reliable core".
#pragma once

#include <memory>

#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"
#include "runtime/parcae_policy.h"

namespace parcae {

class HybridSpotPolicy final : public SpotTrainingPolicy {
 public:
  explicit HybridSpotPolicy(ModelProfile model);

  std::string name() const override { return "Hybrid(OD+spot)"; }
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;
  // The on-demand core is billed at the on-demand rate on top of the
  // spot bill the simulator computes.
  double support_cost_usd_per_hour() const override;

  int core_depth() const { return core_depth_; }

 private:
  ModelProfile model_;
  ThroughputModel throughput_;
  int core_depth_;
  ParallelConfig current_ = kIdleConfig;
  IntervalAccountant accountant_;
};

}  // namespace parcae
