// Bamboo-style baseline (redundancy-based, reactive) following the
// paper's characterization (§1, §2.2, §10.2, Table 5):
//   - fixed pipeline depth P per model; the number of pipelines is
//     floor(N / P) (instances beyond D*P sit idle),
//   - every instance redundantly computes its successor's layers;
//     the overhead cannot be fully hidden in pipeline bubbles and
//     shows up as a throughput tax and as redundant GPU hours,
//   - redundant states double per-instance memory, forcing the deep
//     fixed pipelines of Table 5,
//   - preemptions are recovered quickly from the redundant copies
//     (small stall, no lost progress) unless fewer than P instances
//     remain, in which case training cannot proceed at all.
#pragma once

#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"

namespace parcae {

// Table 5 of the paper.
int bamboo_table5_depth(const ModelProfile& model);

class BambooPolicy final : public SpotTrainingPolicy {
 public:
  explicit BambooPolicy(ModelProfile model);

  std::string name() const override { return "Bamboo"; }
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;

  const ThroughputModel& throughput_model() const { return throughput_; }
  int depth() const { return depth_; }

 private:
  ModelProfile model_;
  ThroughputModel throughput_;
  int depth_;
  ParallelConfig current_ = kIdleConfig;
  IntervalAccountant accountant_;
};

}  // namespace parcae
