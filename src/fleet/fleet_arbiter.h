// FleetArbiter: one owner for the shared spot pool, N Parcae jobs.
//
// The single-job system lets SchedulerCore believe the whole trace is
// its cluster. At fleet scale that ownership moves here: the arbiter
// holds one InstanceLease per job and resizes them at every interval
// boundary, and each job's SchedulerCore sees only its lease.
// The design follows Singularity's global preemption-aware arbiter
// (PAPERS.md) specialized to Parcae's liveput machinery:
//
//   fairness   — weighted max-min (dominant-share weights): pool
//                growth water-fills grants toward the per-job fair
//                share grant_j / w_j, capped at the job's usable
//                maximum (instances beyond which its marginal liveput
//                is zero);
//   preemption — when the pool shrinks, revoke from the job whose
//                *marginal liveput loss per weight* is smallest,
//                read off the job's value table (best achievable
//                throughput per instance count from its throughput
//                model, normalized so models of different scales
//                compare);
//   objective  — maximize Σ_j w_j · liveput_j: after fairness and
//                arbitration, bounded greedy swaps move instances from
//                the lowest marginal-loss lease to the highest
//                marginal-gain one while the fleet objective strictly
//                improves.
//
// Marginals are read off the upper concave hull of each value table,
// so a job whose value jumps at its minimum feasible depth (GPT-3
// needs 9 instances before a single sample commits) is credited with
// the amortized gain of reaching the jump instead of a flat zero —
// plain per-step marginals would never climb such a plateau.
//
// Decisions, per-job shares, and revocation latencies flow into the
// metrics registry under fleet.* (fleet.rebalances, fleet.grants,
// fleet.revocations, fleet.swaps, fleet.unleased, per-job share
// gauges, decision-latency histograms). All decision logic is
// deterministic — wall-clock only feeds latency histograms.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/lease.h"

namespace parcae {

class ThroughputModel;

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace fleet {

// One job's value table: value[n] = the best throughput(best_config(m))
// over m <= n, normalized to the job's value at pool capacity (so a
// GPT-3 job and a VGG job bid in the same currency). It reads no DP
// output. Non-decreasing by construction.
struct JobValueTable {
  std::vector<double> value;  // size = capacity + 1, value[0] == 0

  int capacity() const { return static_cast<int>(value.size()) - 1; }
  // Largest n whose value still exceeds value[n-1]: instances past
  // this are worthless to the job.
  int usable_max() const;
};

// Builds the table from the job's throughput model (the same
// best_config curve the liveput DP maximizes over).
JobValueTable value_table_from_model(const ThroughputModel& model,
                                     int capacity);

struct ArbiterJobSpec {
  int job_id = -1;
  double weight = 1.0;
  JobValueTable values;
};

struct FleetArbiterOptions {
  int capacity = 32;
  std::uint64_t seed = 42;
  // Non-owning metric sink for the fleet.* instruments; nullptr keeps
  // the arbiter silent.
  obs::MetricsRegistry* metrics = nullptr;
  // A value swap must improve the weighted fleet objective by more
  // than this fraction of the loser's marginal loss (hysteresis
  // against churn between near-equal jobs).
  double swap_margin = 0.05;
};

class FleetArbiter {
 public:
  FleetArbiter(std::vector<ArbiterJobSpec> jobs, FleetArbiterOptions options);

  // One arbitration pass: resize leases so that Σ grants <=
  // pool_available, revoking by minimal marginal-loss-per-weight on
  // shrink, water-filling by weighted fairness on growth, then
  // applying bounded objective-improving swaps. Returns the per-job
  // grant vector (indexed by job id). Deterministic.
  const std::vector<int>& rebalance(int interval, int pool_available);

  const std::vector<int>& grants() const { return grants_; }
  const LeaseLedger& ledger() const { return ledger_; }

  // The pure weighted-fairness target for this pool size (capped
  // water-fill, no value term) — the yardstick fairness deviation is
  // measured against.
  std::vector<int> fair_shares(int pool_available) const;

  // Σ_j w_j * value_j[g_j] for a grant vector (the fleet objective).
  double weighted_value(const std::vector<int>& grants) const;

  int jobs() const { return static_cast<int>(jobs_.size()); }
  int capacity() const { return options_.capacity; }

 private:
  // Amortized marginal gain of granting job j its (g+1)th instance /
  // loss of revoking its gth, read off the concave hull.
  double marginal_gain(int job, int g) const;
  double marginal_loss(int job, int g) const;
  void revoke_one(int interval, LeaseChangeReason reason);
  bool grant_one(int interval, LeaseChangeReason reason);

  std::vector<ArbiterJobSpec> jobs_;
  FleetArbiterOptions options_;
  // Per-job upper concave hull of the value table (hull[j][n] >=
  // value[n], concave, non-decreasing).
  std::vector<std::vector<double>> hull_;
  std::vector<int> grants_;
  LeaseLedger ledger_;
};

}  // namespace fleet
}  // namespace parcae
