#include "migration/migration_expectation.h"

#include <algorithm>
#include <cmath>

namespace parcae {
namespace {

// Packed memo key: 10 bits per config dimension, 12 bits for idle and
// k — far beyond the 32-64 instance clusters this system models.
std::uint64_t transition_key(ParallelConfig from, int idle,
                             ParallelConfig to, int k) {
  auto field = [](int v) {
    return static_cast<std::uint64_t>(static_cast<unsigned>(v));
  };
  return (field(from.dp) << 54) | (field(from.pp) << 44) |
         (field(to.dp) << 34) | (field(to.pp) << 24) |
         (field(idle) << 12) | field(k);
}

}  // namespace

MigrationExpectation::MigrationExpectation(CostEstimator estimator,
                                           int mc_trials, std::uint64_t seed,
                                           std::size_t memo_capacity)
    : estimator_(std::move(estimator)),
      sampler_(seed, mc_trials),
      memo_capacity_(memo_capacity) {}

double MigrationExpectation::cost(ParallelConfig from, int n_from,
                                  ParallelConfig to, int preemptions) {
  if (!to.valid()) return 0.0;  // suspending costs nothing by itself
  if (!from.valid()) {
    // Resuming from suspension: restore the full state from ParcaePS.
    return estimator_.checkpoint_rollback(to).total();
  }
  const int idle = std::max(0, n_from - from.instances());
  const int k = std::clamp(preemptions, 0, from.instances() + idle);

  if (k == 0 && to == from) return 0.0;

  const std::uint64_t key = transition_key(from, idle, to, k);
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  const double cost = transition_cost(from, idle, to, k);
  if (memo_.size() < memo_capacity_)
    memo_.emplace(key, cost);
  else
    ++bypass_;
  return cost;
}

double MigrationExpectation::transition_cost(ParallelConfig from, int idle,
                                             ParallelConfig to, int k) {
  const PreemptionSummary& s = sampler_.summarize(from, idle, k);

  if (to.pp != from.pp) {
    // Depth change: pipeline migration; a wiped-out stage forces the
    // states to come from ParcaePS instead of GPU peers.
    const double rollback = estimator_.checkpoint_rollback(to).total();
    const double pipeline = estimator_.pipeline_migration(from, to).total();
    return s.stage_wipeout_prob * rollback +
           (1.0 - s.stage_wipeout_prob) * pipeline;
  }

  // Same depth: mixture over how many pipelines intra-stage migration
  // alone can recover.
  const double intra_cost = estimator_.intra_stage(to).total();
  const double rollback_cost = estimator_.checkpoint_rollback(to).total();
  // Expected inter-stage moves to assemble to.dp pipelines:
  // E[sum_s max(0, dp' - a_s)] = P * sum_a P(a) * max(0, dp' - a).
  //
  // This re-derives the expectation from the per-stage marginal
  // instead of reading PreemptionSummary::expected_inter_moves[to.dp]
  // on purpose: expected_inter_moves is indexed only up to the
  // *source* depth D, while a same-depth transition may grow width
  // (to.dp > from.dp, e.g. after allocations), and the two summation
  // orders differ in final ulps, which would nudge DP tie-breaks and
  // shift golden outputs. The linearity identity between the two is
  // pinned by Preemption.InterMovesMatchStageAliveDerivation.
  double expected_moves = 0.0;
  for (std::size_t a = 0; a < s.stage_alive_prob.size(); ++a)
    expected_moves += s.stage_alive_prob[a] *
                      std::max(0.0, static_cast<double>(to.dp) -
                                        static_cast<double>(a));
  expected_moves *= static_cast<double>(from.pp);

  double cost = 0.0;
  for (std::size_t d = 0; d < s.intra_pipelines_prob.size(); ++d) {
    const double p = s.intra_pipelines_prob[d];
    if (p <= 0.0) continue;
    if (d == 0) {
      cost += p * rollback_cost;
    } else if (static_cast<int>(d) >= to.dp) {
      cost += p * intra_cost;
    } else {
      const int moves = std::max(
          1, static_cast<int>(std::lround(expected_moves)));
      cost += p * estimator_.inter_stage(to, moves).total();
    }
  }
  return cost;
}

}  // namespace parcae
