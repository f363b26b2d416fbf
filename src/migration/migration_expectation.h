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
// pipelines survive. Every evaluated edge (from, idle, to, k) is
// memoized, bounded by `memo_capacity`: repeated interval pairs —
// ubiquitous under flat forecasts and across re-optimizations — cost a
// hash lookup instead of the mixture arithmetic.
//
// Not thread-safe: the DP fills its cost slab serially (in the order
// that keeps the sampler's RNG consumption fixed) and only then fans
// out over plain arrays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "migration/cost_model.h"
#include "migration/preemption.h"
#include "parallel/parallel_config.h"

namespace parcae {

class MigrationExpectation {
 public:
  MigrationExpectation(CostEstimator estimator, int mc_trials,
                       std::uint64_t seed, std::size_t memo_capacity);

  // Expected stall for c -> c' while `preemptions` of the `n_from`
  // instances are preempted. Memoized on (from, idle, to, clamped k).
  double cost(ParallelConfig from, int n_from, ParallelConfig to,
              int preemptions);

  PreemptionSampler& sampler() { return sampler_; }

  // Memo telemetry: lookups that hit, missed, and missed without being
  // stored because the memo was full.
  std::uint64_t memo_hits() const { return hits_; }
  std::uint64_t memo_misses() const { return misses_; }
  std::uint64_t memo_bypass() const { return bypass_; }

 private:
  // The mixture arithmetic behind cost(), after the trivial cases are
  // peeled off; `idle`/`k` are already normalized.
  double transition_cost(ParallelConfig from, int idle, ParallelConfig to,
                         int k);

  CostEstimator estimator_;
  PreemptionSampler sampler_;
  std::size_t memo_capacity_;
  std::unordered_map<std::uint64_t, double> memo_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t bypass_ = 0;
};

}  // namespace parcae
