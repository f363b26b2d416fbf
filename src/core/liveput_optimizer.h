// Liveput optimizer (§7): the look-ahead interval DP (core/interval_dp.h)
// with the training objective. Given the predicted availability
// sequence N_1..N_I, it finds the sequence of parallel configurations
// maximizing the expected number of committed training samples
// (Equations 3-6):
//
//   F(i+1, c') = max_{c : c.instances() <= N_i}
//                  { F(i, c) + phi(c, N_i -> c', N_{i+1}) }
//   phi = THROUGHPUT(c') * E_v[ T - T_mig(c -> c' | v) ]
//
// The expectation over preemption mappings v comes from the cached
// Monte-Carlo summaries (MigrationExpectation); migration strategy and
// cost follow §7.2 (depth change -> pipeline migration; otherwise the
// cheaper of intra-/inter-stage, with the wipe-out probability charged
// as a ParcaePS rollback).
#pragma once

#include "core/interval_dp.h"
#include "core/objective.h"
#include "parallel/throughput_model.h"

namespace parcae {

using LiveputOptimizerOptions = IntervalDpOptions;
// plan.expected_value: expected committed samples over the window.
using LiveputPlan = IntervalPlan;

// The objective is a base (not a member) so it is constructed before
// the IntervalDp base that keeps a pointer to it.
class LiveputOptimizer : private LiveputObjective, public IntervalDp {
 public:
  // `throughput` must outlive the optimizer.
  LiveputOptimizer(const ThroughputModel* throughput,
                   CostEstimator estimator,
                   LiveputOptimizerOptions options = {})
      : LiveputObjective(throughput),
        IntervalDp(this, std::move(estimator), std::move(options)) {}
};

}  // namespace parcae
