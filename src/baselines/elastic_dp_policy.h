// TorchElastic-style baseline (§2.2): elastic *data parallelism only*.
// Feasible only when the whole model (with optimizer states) fits one
// GPU; on availability changes the process group is re-formed and the
// in-flight iteration is lost. Demonstrates why pipeline parallelism
// is mandatory for the large models.
#pragma once

#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"

namespace parcae {

class ElasticDpPolicy final : public SpotTrainingPolicy {
 public:
  explicit ElasticDpPolicy(ModelProfile model);

  std::string name() const override { return "Elastic-DP"; }
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;

  // Whether the model fits a single GPU at all.
  bool model_fits() const { return throughput_.min_pipeline_depth() == 1; }

 private:
  ModelProfile model_;
  ThroughputModel throughput_;
  ParallelConfig current_ = kIdleConfig;
  IntervalAccountant accountant_;
};

}  // namespace parcae
