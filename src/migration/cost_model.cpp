#include "migration/cost_model.h"

#include <algorithm>
#include <cmath>

#include "model/memory_model.h"

namespace parcae {
namespace {

// Cost terms profiled once per cluster (Table 4 ranges in the header
// comment). Times are seconds.
constexpr double kStartProcessS = 0.8;
constexpr double kRendezvousBaseS = 1.5;
constexpr double kRendezvousPerInstanceS = 0.12;
constexpr double kCudaInitS = 7.0;
constexpr double kLoadDataS = 3.0;
constexpr double kBuildModelBaseS = 1.0;
constexpr double kBuildModelSPerGb = 0.75;  // of per-stage state
constexpr double kCommGroupBaseS = 2.0;
constexpr double kCommGroupPerInstanceS = 0.35;
// Re-sharding to a different pipeline depth moves misaligned state
// shards (gather + scatter rounds, framework (de)serialization);
// profiled as a multiple of the raw all-to-all transfer time.
constexpr double kPipelineTransferOverhead = 8.0;
// Re-partitioned pipelines restart cold: optimizer/attention caches,
// NCCL warm-up, first-batch compilation.
constexpr double kPipelineWarmupS = 15.0;
constexpr double kPsFixedS = 3.0;

}  // namespace

CostEstimator::CostEstimator(ModelProfile model) : model_(std::move(model)) {}

double CostEstimator::stage_state_bytes(int pipeline_depth) const {
  if (pipeline_depth <= 0) return 0.0;
  return model_.parameters * kStateBytesPerParam /
         static_cast<double>(pipeline_depth);
}

MigrationCostTerms CostEstimator::base_reconfig(ParallelConfig to) const {
  MigrationCostTerms t;
  t.rendezvous_s =
      kRendezvousBaseS + kRendezvousPerInstanceS * to.instances();
  t.comm_groups_s = kCommGroupBaseS + kCommGroupPerInstanceS * to.instances();
  return t;
}

MigrationCostTerms CostEstimator::intra_stage(ParallelConfig to) const {
  // Only routing changes: no state transfer, no model rebuild.
  MigrationCostTerms t = base_reconfig(to);
  t.rendezvous_s *= 0.5;  // existing process group, partial update
  t.comm_groups_s *= 0.5;
  return t;
}

MigrationCostTerms CostEstimator::inter_stage(ParallelConfig to,
                                              int moves) const {
  MigrationCostTerms t = base_reconfig(to);
  if (moves > 0) {
    const double bytes = stage_state_bytes(to.pp);
    // Each moving instance pulls a full stage of states; sources can
    // serve concurrently, but when more targets than pipelines pull
    // from the same replicas the link is shared.
    const int concurrent_per_source =
        (moves + std::max(1, to.dp) - 1) / std::max(1, to.dp);
    t.state_transfer_s =
        NetworkModel::p2p_time(bytes) *
        NetworkModel::contention_factor(concurrent_per_source);
    const double gb = bytes / 1e9;
    t.build_model_s = kBuildModelBaseS + kBuildModelSPerGb * gb;
  }
  return t;
}

MigrationCostTerms CostEstimator::pipeline_migration(ParallelConfig from,
                                                     ParallelConfig to) const {
  MigrationCostTerms t = base_reconfig(to);
  const double bytes = stage_state_bytes(to.pp);
  const double gb = bytes / 1e9;
  t.build_model_s = kBuildModelBaseS + kBuildModelSPerGb * gb;
  // Every instance re-shards: all-to-all of its new stage's states.
  // (from is informational: a deeper source pipeline means smaller
  // individual shards but more peers; the all-to-all volume per rank
  // is the destination stage size either way.)
  (void)from;
  t.state_transfer_s =
      NetworkModel::all_to_all_time(bytes, std::max(2, to.instances())) *
          kPipelineTransferOverhead +
      kPipelineWarmupS;
  return t;
}

MigrationCostTerms CostEstimator::instance_join(ParallelConfig to) const {
  MigrationCostTerms t;
  t.start_process_s = kStartProcessS;
  t.cuda_init_s = kCudaInitS;
  t.load_data_s = kLoadDataS;
  const double gb = stage_state_bytes(to.pp) / 1e9;
  t.build_model_s = kBuildModelBaseS + kBuildModelSPerGb * gb;
  t.state_transfer_s = NetworkModel::p2p_time(stage_state_bytes(to.pp));
  return t;
}

MigrationCostTerms CostEstimator::checkpoint_rollback(
    ParallelConfig to) const {
  MigrationCostTerms t = base_reconfig(to);
  const double total_state = model_.parameters * kStateBytesPerParam;
  t.state_transfer_s = kPsFixedS + total_state / kParcaePsBandwidthBytesPerS;
  const double gb = stage_state_bytes(to.pp) / 1e9;
  t.build_model_s = kBuildModelBaseS + kBuildModelSPerGb * gb;
  return t;
}

}  // namespace parcae
