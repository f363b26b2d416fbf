// Oobleck-style baseline (related work, §11): resilient training via
// *precomputed pipeline templates*.
//
// At job start, Oobleck precomputes a set of pipeline templates (one
// per feasible pipeline depth); on a failure it re-instantiates
// pipelines from the templates instead of re-planning, which makes
// recovery fast (template switch) but still *reactive*: it always
// picks the template maximizing instantaneous throughput and pays the
// instantiation cost whenever the template changes. Checkpoints are
// not needed (like Parcae it keeps redundant state lineage across
// pipeline replicas; a full template switch only reshuffles shards).
#pragma once

#include <vector>

#include "migration/cost_model.h"
#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"

namespace parcae {

class OobleckPolicy final : public SpotTrainingPolicy {
 public:
  // Precomputes one template per memory-feasible depth up to 32.
  explicit OobleckPolicy(ModelProfile model);

  std::string name() const override { return "Oobleck"; }
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;
  // Coordinator node + checkpoint storage.
  double support_cost_usd_per_hour() const override { return 0.68 + 0.1; }

  const std::vector<int>& templates() const { return templates_; }

 private:
  // Best (throughput-max) instantiation of any template for N nodes.
  ParallelConfig best_instantiation(int available) const;

  ModelProfile model_;
  ThroughputModel throughput_;
  CostEstimator estimator_;
  std::vector<int> templates_;
  ParallelConfig current_ = kIdleConfig;
  IntervalAccountant accountant_;
  double unsaved_samples_ = 0.0;
  double train_since_save_s_ = 0.0;
};

}  // namespace parcae
