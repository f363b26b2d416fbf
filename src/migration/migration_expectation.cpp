#include "migration/migration_expectation.h"

#include <algorithm>
#include <cmath>

namespace parcae {

MigrationExpectation::MigrationExpectation(CostEstimator estimator,
                                           int mc_trials, std::uint64_t seed)
    : estimator_(std::move(estimator)), sampler_(seed, mc_trials) {}

double MigrationExpectation::cost(ParallelConfig from, int n_from,
                                  ParallelConfig to, int preemptions) {
  if (!to.valid()) return 0.0;  // suspending costs nothing by itself
  if (!from.valid()) {
    // Resuming from suspension: restore the full state from ParcaePS.
    return estimator_.checkpoint_rollback(to).total();
  }
  const Source src = source(from, n_from, preemptions);
  if (src.k == 0 && to == from) return 0.0;
  return transition_cost(from, sampler_.summarize(from, src.idle, src.k), to,
                         destination(to));
}

MigrationExpectation::Source MigrationExpectation::source(ParallelConfig from,
                                                          int n_from,
                                                          int preemptions) {
  const int idle = std::max(0, n_from - from.instances());
  return {idle, std::clamp(preemptions, 0, from.instances() + idle)};
}

DestinationCosts MigrationExpectation::destination(ParallelConfig to) const {
  // pipeline_migration prices only the destination's re-shard.
  return {estimator_.checkpoint_rollback(to).total(),
          estimator_.pipeline_migration(to, to).total(),
          estimator_.intra_stage(to).total()};
}

double MigrationExpectation::same_depth_cost(
    ParallelConfig from, const PreemptionSummary& s, ParallelConfig to,
    const DestinationCosts& dest) const {
  // Same depth: mixture over how many pipelines intra-stage migration
  // alone can recover, summed in ascending order over the buckets with
  // mass (a bucket without mass adds nothing).
  double cost = 0.0;
  double inter = 0.0;
  bool inter_priced = false;
  for (const int d : s.intra_support) {
    const double p = s.intra_pipelines_prob[static_cast<std::size_t>(d)];
    if (d == 0) {
      cost += p * dest.rollback;
    } else if (d >= to.dp) {
      cost += p * dest.intra;
    } else {
      if (!inter_priced) inter = inter_stage_cost(from, s, to);
      inter_priced = true;
      cost += p * inter;
    }
  }
  return cost;
}

double MigrationExpectation::inter_stage_cost(ParallelConfig from,
                                              const PreemptionSummary& s,
                                              ParallelConfig to) const {
  // Expected inter-stage moves to assemble to.dp pipelines:
  // E[sum_s max(0, dp' - a_s)] = P * sum_{a < dp'} P(a) * (dp' - a);
  // the a >= dp' terms are exactly +0.0, so leaving them out keeps the
  // sum bit-identical. Deriving it from the per-stage marginal covers
  // width growth at the same depth (to.dp > from.dp, e.g. after
  // allocations) as well as shrinkage. The derivation is checked
  // against the exact hypergeometric closed form by
  // SamplerAgreementTest.ExpectedMovesWithinTolerance.
  const std::size_t n = std::min(s.stage_alive_prob.size(),
                                 static_cast<std::size_t>(to.dp));
  double expected_moves = 0.0;
  for (std::size_t a = 0; a < n; ++a)
    expected_moves += s.stage_alive_prob[a] * (static_cast<double>(to.dp) -
                                               static_cast<double>(a));
  expected_moves *= static_cast<double>(from.pp);
  const int moves =
      std::max(1, static_cast<int>(std::lround(expected_moves)));
  return estimator_.inter_stage(to, moves).total();
}

}  // namespace parcae
