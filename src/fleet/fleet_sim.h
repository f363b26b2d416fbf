// Fleet simulator: N Parcae jobs multiplexed over one shared spot
// pool.
//
// The single-job ClusterSimulator answers "what does one Parcae job
// commit on this trace?". This layer answers the fleet question: given
// one preemptible pool (a Table-1 trace) and many jobs with weights
// and heterogeneous models, how much weighted liveput does the whole
// fleet commit, and how fairly is the pool divided?
//
// Two allocation regimes are simulated over the same pool trace:
//   - arbiter: the FleetArbiter rebalances leases every interval
//     (weighted max-min growth, minimal marginal-loss revocation,
//     objective-improving swaps);
//   - static partitioning (the baseline): the pool is split once by
//     weight (largest-remainder apportionment) and each job rides its
//     fixed slice — preemptions hit slices proportionally, and no
//     instance ever moves between jobs.
// Each job then runs its own full Parcae stack (SchedulerCore inside
// ParcaePolicy under the interval simulator) over its per-interval
// grant series. To the job that holds it a lease is one more
// availability trace (SpotTrace::from_minute_series over the grants):
// the job never sees the pool, only its lease.
//
// Determinism: job j's scheduler seed is fleet_job_seed(fleet_seed, j)
// (the FaultInjector forking scheme), so a fleet run replays
// bit-for-bit and adding a job never perturbs the streams of the
// others. Each job records through a "job<j>." view of the shared
// registry (obs::MetricsRegistry's prefixing view), so its
// instruments keep their fixed names; arbiter decisions land under
// "fleet.*".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet_arbiter.h"
#include "obs/metrics.h"
#include "trace/spot_trace.h"

namespace parcae {

class SloEngine;

// Stable 64-bit FNV-1a hash (the FaultInjector per-point scheme: one
// shared constant namespace, independent streams per name).
inline std::uint64_t fleet_hash_name(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Forks job `job_id`'s seed from the fleet seed the way FaultInjector
// forks per-point streams: seed ^ FNV-1a("job<id>"). Adding or
// removing jobs never perturbs another job's stream, so fleet runs
// replay bit-for-bit regardless of job count or interleaving.
inline std::uint64_t fleet_job_seed(std::uint64_t fleet_seed, int job_id) {
  return fleet_seed ^ fleet_hash_name("job" + std::to_string(job_id));
}

namespace fleet {

struct FleetJobSpec {
  int job_id = -1;
  // Profile name resolved through model_by_name ("GPT-2", "BERT-Large",
  // "ResNet-152", "VGG-19", "GPT-3").
  std::string model = "GPT-2";
  double weight = 1.0;
};

struct FleetSimOptions {
  std::uint64_t fleet_seed = 42;
  double interval_s = 60.0;
  // Pool capacity; clamps the trace (Table-1 segments use 32).
  int capacity = 32;
  // Per-job decision-engine knobs (kept cheap: a 100-job fleet runs
  // 100 full Parcae stacks).
  int lookahead = 6;
  int history = 8;
  int mc_trials = 16;
  // Event-driven per-job scheduling (mode=event in fleet_sim_cli):
  // each job's core re-optimizes on lease-change events instead of
  // every tick (SchedulerCoreOptions::event_driven).
  bool event_driven = false;
  double debounce_ms = 250.0;
  // Optional shared sink. Metrics get fleet.* and job<j>.* names.
  obs::MetricsRegistry* metrics = nullptr;
  double swap_margin = 0.05;
  // SLO rule engine (non-owning, optional; needs `metrics`). Evaluated
  // once per regime against the FleetAggregator rollup of the shared
  // registry, so rules can target fleet-wide names no single registry
  // holds — "fleet.sim.preemptions" (sum over jobs), gauge maxima like
  // "fleet.fleet.normalized_liveput.max", or pass-through "fleet.*"
  // arbiter counters. Rate rules see the delta between regimes.
  SloEngine* slo = nullptr;
};

struct FleetJobResult {
  int job_id = -1;
  std::string model;
  double weight = 1.0;
  // Instances granted per interval (the job's lease series).
  std::vector<int> grants;
  double committed_samples = 0.0;
  // Committed samples per second of the intervals run, normalized by
  // the job's throughput at pool capacity (the value-table currency) —
  // comparable across models. 0 when no whole interval ran.
  double normalized_liveput = 0.0;
  double mean_grant = 0.0;
};

struct FleetSimResult {
  std::string trace;
  std::string regime;  // "arbiter" | "static"
  int jobs = 0;
  int intervals = 0;
  // The fleet objective: sum_j weight_j * normalized_liveput_j.
  double weighted_liveput = 0.0;
  // Mean over intervals of the misallocated pool fraction
  // sum_j |grant_j - fair_j| / (2 * pool): 0 = exactly the weighted
  // fair share every interval.
  double weighted_share_deviation = 0.0;
  long long lease_grants = 0;
  long long lease_revocations = 0;
  // "tick" or "event (debounce_ms=...)": how the per-job cores decided
  // when to re-optimize.
  std::string scheduler_mode = "tick";
  std::vector<FleetJobResult> per_job;
  obs::MetricsSnapshot metrics;

  std::string to_string() const;
};

// A standard heterogeneous fleet: jobs cycle through GPT-2,
// BERT-Large, ResNet-152, VGG-19 with weights cycling 1.0/2.0/1.0/0.5.
std::vector<FleetJobSpec> standard_fleet(int num_jobs);

class FleetSimulator {
 public:
  FleetSimulator(std::vector<FleetJobSpec> jobs, FleetSimOptions options);

  // Arbiter regime: FleetArbiter leases, then one full Parcae run per
  // job over its lease.
  FleetSimResult run(const SpotTrace& pool_trace);

  // Static-partitioning baseline over the same pool and jobs.
  FleetSimResult run_static(const SpotTrace& pool_trace);

  // The fixed slice each job owns under static partitioning
  // (largest-remainder apportionment of `capacity` by weight).
  std::vector<int> static_slices(int capacity) const;

 private:
  // Run every job's Parcae stack over its grant series and assemble
  // the result (shared by both regimes).
  FleetSimResult integrate(const SpotTrace& pool_trace,
                           const std::string& regime,
                           const std::vector<std::vector<int>>& grant_series,
                           const FleetArbiter& arbiter);

  std::vector<FleetJobSpec> jobs_;
  FleetSimOptions options_;
};

}  // namespace fleet
}  // namespace parcae
