// Expected migration stall of one look-ahead DP edge (§7.2-7.3):
// E_v[T_mig(c -> c' | v)] over the preemption mappings v, shared by
// every objective the interval DP optimizes (training liveput, serving
// goodput).
//
// The expectation mixes the source configuration's Monte-Carlo
// preemption summary (PreemptionSampler) with the CostEstimator's
// per-strategy costs: a depth change is a pipeline migration unless a
// stage was wiped out (then a ParcaePS rollback); otherwise a mixture
// of intra-stage migration, inter-stage moves and rollback by how many
// pipelines survive.
//
// An edge splits into a destination side (DestinationCosts: RNG-free,
// priced once per candidate) and a source side (the summary of
// (from, idle, k), resolved once per predecessor), so the DP prices
// every edge with transition_cost() as plain arithmetic over the two.
//
// The sampler draws from one RNG stream, so the order of first
// summarize() calls fixes every summary. The DP resolves each live
// predecessor's summary, jj ascending, before its pruned scan, so
// which edges the scan skips never changes a draw; transition_cost()
// is const and only reads.
#pragma once

#include <cstdint>

#include "migration/cost_model.h"
#include "migration/preemption.h"
#include "parallel/parallel_config.h"

namespace parcae {

// The terms of every edge into `to` that no source or preemption
// outcome changes.
struct DestinationCosts {
  double rollback = 0.0;  // checkpoint_rollback(to)
  double pipeline = 0.0;  // pipeline_migration(*, to): source-independent
  double intra = 0.0;     // intra_stage(to)
};

class MigrationExpectation {
 public:
  MigrationExpectation(CostEstimator estimator, int mc_trials,
                       std::uint64_t seed);

  // Expected stall for c -> c' while `preemptions` of the `n_from`
  // instances are preempted.
  double cost(ParallelConfig from, int n_from, ParallelConfig to,
              int preemptions);

  // The summary key of every edge out of a valid `from`: its spare
  // instances among `n_from`, and `preemptions` clamped to what exists.
  struct Source {
    int idle = 0;
    int k = 0;
  };
  static Source source(ParallelConfig from, int n_from, int preemptions);

  DestinationCosts destination(ParallelConfig to) const;

  // The mixture arithmetic behind cost() for valid configs, given the
  // summary of from's Source and to's DestinationCosts (cost() peels
  // off the free k == 0 stay first).
  double transition_cost(ParallelConfig from, const PreemptionSummary& s,
                         ParallelConfig to,
                         const DestinationCosts& dest) const {
    if (to.pp != from.pp)
      return depth_change_cost(s.stage_wipeout_prob, dest);
    return same_depth_cost(from, s, to, dest);
  }
  // Depth change: pipeline migration; a wiped-out stage (probability
  // `wipeout`, the summary's stage_wipeout_prob) forces the states to
  // come from ParcaePS instead of GPU peers.
  static double depth_change_cost(double wipeout,
                                  const DestinationCosts& dest) {
    return wipeout * dest.rollback + (1.0 - wipeout) * dest.pipeline;
  }

  PreemptionSampler& sampler() { return sampler_; }

 private:
  double same_depth_cost(ParallelConfig from, const PreemptionSummary& s,
                         ParallelConfig to,
                         const DestinationCosts& dest) const;
  double inter_stage_cost(ParallelConfig from, const PreemptionSummary& s,
                          ParallelConfig to) const;

  CostEstimator estimator_;
  PreemptionSampler sampler_;
};

}  // namespace parcae
