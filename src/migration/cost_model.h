// Migration cost estimator (§9.4, Appendix A / Table 4).
//
// Estimates the stall (T_mig in Equation 4) each migration strategy
// imposes, from the cost terms the paper profiles:
//   start process (<1 s), rendezvous (0-10 s), CUDA context init
//   (0-10 s), data loading (0-10 s), model build (0-10 s), comm-group
//   update (0-20 s), and model-state transfer (0-60 s, alpha-beta).
// The transfer term uses the NetworkModel and accounts for link
// contention when several instances receive state concurrently. The
// profiled constants live in cost_model.cpp; porting to another
// cluster re-fits them there (docs/porting.md §2).
#pragma once

#include "model/model_profile.h"
#include "net/network_model.h"
#include "parallel/parallel_config.h"

namespace parcae {

struct MigrationCostTerms {
  double start_process_s = 0.0;
  double rendezvous_s = 0.0;
  double cuda_init_s = 0.0;
  double load_data_s = 0.0;
  double build_model_s = 0.0;
  double comm_groups_s = 0.0;
  double state_transfer_s = 0.0;
  // Serving only: in-flight/queued requests the outgoing replicas must
  // finish before retiring (src/serve/). Always 0 for training plans.
  double drain_s = 0.0;

  double total() const {
    return start_process_s + rendezvous_s + cuda_init_s + load_data_s +
           build_model_s + comm_groups_s + state_transfer_s + drain_s;
  }
};

// ParcaePS checkpoint pull bandwidth (aggregate, on-demand CPU
// instances' NICs): what a rollback restore and the per-iteration
// gradient push (runtime/parcae_ps.h) both move through.
inline constexpr double kParcaePsBandwidthBytesPerS = 6e9;

class CostEstimator {
 public:
  CostEstimator(ModelProfile model);

  // Routing-only recovery: update communication groups.
  MigrationCostTerms intra_stage(ParallelConfig to) const;

  // `moves` instances each receive one stage's states from a peer.
  // Transfers from distinct sources run concurrently; contention is
  // charged when several targets pull from the same stage replica.
  MigrationCostTerms inter_stage(ParallelConfig to, int moves) const;

  // Re-partition to a different pipeline depth: all instances
  // exchange shards (all-to-all) and rebuild the model.
  MigrationCostTerms pipeline_migration(ParallelConfig from,
                                        ParallelConfig to) const;

  // Cold start of newly allocated instances (overlappable with
  // training; the scheduler charges only the comm-group rebuild).
  MigrationCostTerms instance_join(ParallelConfig to) const;

  // Full-state restore from ParcaePS after a stage wipe-out (§8).
  MigrationCostTerms checkpoint_rollback(ParallelConfig to) const;

  const ModelProfile& model() const { return model_; }

  // Per-stage GPU state bytes at depth P.
  double stage_state_bytes(int pipeline_depth) const;

 private:
  MigrationCostTerms base_reconfig(ParallelConfig to) const;

  ModelProfile model_;
};

}  // namespace parcae
