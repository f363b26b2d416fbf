// Varuna-style baseline (checkpoint-based, throughput-optimized,
// reactive) following the paper's characterization (§1, §2.2, §10.2):
//   - periodically saves full training state to cloud storage
//     (partially overlapped with training),
//   - on any availability change, "job morphing" reconfigures to the
//     throughput-optimal (D, P) for the new instance count,
//   - a preemption rolls training back to the last completed
//     checkpoint (losing the progress since) and restarts by loading
//     the checkpoint from storage,
//   - its memory stack keeps full Adam states on the GPU, giving the
//     deepest minimum pipeline depth of the three systems.
#pragma once

#include <string>

#include "model/model_profile.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"

namespace parcae {

// Bytes of training state a remote checkpoint holds per parameter
// (fp16 weights + fp32 master + Adam moments).
inline constexpr double kCheckpointBytesPerParam = 14.0;
// S3-class aggregate bandwidth of the object store holding remote
// checkpoints; shard loads are partially parallel across instances,
// so the effective rate exceeds one connection.
inline constexpr double kObjectStorageBandwidthBytesPerS = 600e6;

struct VarunaOptions {
  double checkpoint_period_s = 300.0;  // training time between saves
  // Fraction of a save not hidden behind training.
  double save_stall_fraction = 0.25;
};

class VarunaPolicy final : public SpotTrainingPolicy {
 public:
  explicit VarunaPolicy(ModelProfile model, VarunaOptions options = {});

  std::string name() const override { return "Varuna"; }
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;
  double support_cost_usd_per_hour() const override;

  const ThroughputModel& throughput_model() const { return throughput_; }
  double checkpoint_save_time_s() const;

 private:
  ModelProfile model_;
  VarunaOptions options_;
  ThroughputModel throughput_;

  ParallelConfig current_ = kIdleConfig;
  double unsaved_samples_ = 0.0;
  double train_since_save_s_ = 0.0;
  // Large checkpoint reloads span several intervals for big models;
  // the accountant carries the spillover.
  IntervalAccountant accountant_;
};

}  // namespace parcae
