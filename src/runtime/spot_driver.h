// SpotTrainingDriver: the complete Parcae loop (Algorithm 1) running
// against the *real* in-process training cluster.
//
// The decision-making — guarded ARIMA forecasts, the liveput
// optimizer, §8 adaptation, depth hysteresis, migration planning — is
// the shared SchedulerCore (src/core/scheduler_core.h), the same
// engine ParcaePolicy drives in the interval simulator; this driver is
// the executor backend that turns its advice into *real* work: cloud
// grants become cluster agents, preemption notices (after their grace
// period) remove them, advised configurations are realized as live
// migrations on actual parameters, and training runs for the rest of
// each interval. The core reasons about a ModelProfile derived from
// the actual MLP, so the optimizer reasons about the very model being
// trained. This is the whole paper, end to end, at laptop scale.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "core/scheduler_core.h"
#include "nn/dataset.h"
#include "runtime/training_cluster.h"
#include "trace/spot_trace.h"

namespace parcae {

class SloEngine;

// The decision knobs are the core's, with the live loop's defaults;
// `seed` also seeds the cloud, the fault injector and the trace ids.
// Pipeline-depth bounds left at 0 are derived from the actual cluster,
// and set ones are clamped into what its layers allow.
struct SpotDriverOptions : SchedulerCoreOptions {
  SpotDriverOptions() {
    lookahead = 8;
    mc_trials = 128;  // cheaper Monte-Carlo budget for the live loop
    max_instances = 64;
    seed = 11;
  }

  int iterations_per_interval = 4;
  // Instances the driver keeps requested from the cloud.
  int requested_instances = 32;
  // Fault injection (docs/robustness.md). Non-owning; null runs fault
  // free. The injector is forwarded to the cluster (kill points), the
  // KvStore (kv.* points) and every ParcaePS replica (ps.push).
  FaultInjector* faults = nullptr;
  // Hub-side trace writer (non-owning, optional): receives the
  // rpc.handle.* spans the cluster's RPC server emits, as its own
  // "process" file for `trace_tool merge`. The agent/scheduler side
  // traces into `tracer`.
  obs::TraceWriter* hub_tracer = nullptr;
  // SLO rule engine (non-owning, optional). The driver points it at
  // the core's registry and event log (and the active fault injector)
  // and evaluates every rule at the end of each interval, so alerts
  // land in the run's own audit trail as kAlert events. No time
  // series is wired — the driver records none; use rate/gauge rules.
  SloEngine* slo = nullptr;
};

struct SpotDriverReport {
  int intervals = 0;
  long long iterations = 0;
  std::size_t epochs_completed = 0;
  float final_loss = 0.0f;
  long long ps_rollbacks = 0;
  bool replicas_always_consistent = true;
  // Executed migrations by kind (indexed by MigrationKind).
  std::array<int, 6> migrations_by_kind{};
  // Configuration the scheduler advised each interval (what the
  // cluster was reconfigured to).
  std::vector<ParallelConfig> advised;
  // The decision core's structured audit trail for the run: cloud
  // events, optimizer choices, hysteresis holds, planned migrations —
  // real-cluster runs are as auditable as simulated ones.
  EventLog telemetry;
  // Counters and latency histograms accumulated by the decision core
  // and the driver (reconfigure/train spans, executed migrations).
  obs::MetricsSnapshot metrics;
  // §8 robustness accounting (all zero unless a FaultInjector fired).
  long long faults_injected = 0;
  // Zero-grace kills the run absorbed without crashing, and the subset
  // that landed mid-iteration (lease abandoned, batch re-leased).
  long long unpredicted_kills_survived = 0;
  long long mid_iteration_kills = 0;
  // Migrations whose slot-fill was interrupted by a kill and recovered
  // via the ParcaePS rollback path (or suspended when infeasible).
  long long migrations_aborted = 0;
  // ParcaePS pushes that needed a retry, and pushes whose retries were
  // exhausted (PS refreshed from the trainer's post-update state).
  long long ps_push_retries = 0;
  long long ps_refreshes = 0;
  // Silent deaths detected through KvStore lease expiry.
  long long lease_expirations = 0;
  // Intervals the driver had to hold at idle because faults drove the
  // alive count below the advised (min viable) configuration.
  long long paused_intervals = 0;

  int migrations(MigrationKind kind) const {
    return migrations_by_kind[static_cast<std::size_t>(kind)];
  }
};

class SpotTrainingDriver {
 public:
  SpotTrainingDriver(TrainingClusterOptions cluster_options,
                     const nn::Dataset* dataset,
                     SpotDriverOptions options = {});

  // Runs over `trace` (the whole pool, a fleet job's lease, or a
  // simulate_spot_market trace), replayed through a TraceCloudProvider:
  // instance grants become cluster agents, preemption notices (after
  // their grace period) remove them, and Algorithm 1 runs every
  // interval.
  SpotDriverReport run(const SpotTrace& trace);

  TrainingCluster& cluster() { return cluster_; }
  // The decision engine (exposed for the sim-vs-real equivalence
  // tests) and the profile it reasons over.
  const SchedulerCore& scheduler() const { return core_; }
  const ModelProfile& profile() const { return profile_; }

 private:
  SchedulerCoreOptions core_options() const;
  // Largest sub-configuration of `advice` that `alive` agents can run
  // (shrink dp first, then pp); kIdleConfig when even 1x1 won't fit.
  static ParallelConfig clamp_to_alive(ParallelConfig advice, int alive);

  TrainingClusterOptions cluster_options_;
  SpotDriverOptions options_;
  TrainingCluster cluster_;
  ModelProfile profile_;
  SchedulerCore core_;
};

}  // namespace parcae
