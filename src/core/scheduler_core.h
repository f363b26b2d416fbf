// SchedulerCore: the single implementation of Parcae's decision loop
// (Algorithm 1), shared by every executor backend and every workload.
//
// Each interval it
//   1. adapts the previously planned configuration to the actual
//      availability (§8 parallelization adaptation), holding the
//      current pipeline depth through noisy forecasts (hysteresis),
//   2. plans the live migration from the (possibly damaged) current
//      configuration (§6) and estimates its stall,
//   3. forecasts availability (§5) and the objective's load, and runs
//      the interval DP (§7) to pick the next interval's configuration.
//
// What it maximizes is the objective's (core/objective.h): training
// liveput by default, serving goodput for serve::ServingScheduler.
//
// The core is pure decision-making: it never touches a ledger and
// never trains. Backends drive it and act on its advice:
//   - ParcaePolicy (src/runtime/parcae_policy.*) charges the advised
//     stall to the interval-quantized simulator's ledgers,
//   - SpotTrainingDriver (src/runtime/spot_driver.*) executes the
//     advised configuration as real migrations on the in-process
//     agent cluster,
//   - simulate_serving (src/serve/serving_sim.*) replays requests
//     through the advised serving replicas,
//   - future backends (sharded or RPC executors) are one adapter each.
//
// Four modes cover the paper's variants and the serving baselines:
//   kProactive — Parcae          (guarded ARIMA forecasts)
//   kOracle    — Parcae(Ideal)   (true future availability)
//   kReactive  — Parcae-Reactive (§10.4: liveput optimization disabled,
//                the objective's best config for what is available
//                now + adaptation only)
//   kStatic    — fixed provisioning (options.static_config), only
//                damage-adapted
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/interval_dp.h"
#include "core/objective.h"
#include "core/telemetry.h"
#include "migration/planner.h"
#include "model/model_profile.h"
#include "obs/metrics.h"
#include "parallel/throughput_model.h"
#include "predict/predictor.h"
#include "trace/spot_trace.h"

namespace parcae {

namespace obs {
class TraceWriter;
}  // namespace obs

enum class PredictionMode { kProactive, kOracle, kReactive, kStatic };

struct SchedulerCoreOptions {
  PredictionMode mode = PredictionMode::kProactive;
  int lookahead = 12;         // I: intervals the optimizer plans over
  int history = 12;           // H: intervals of history fed to ARIMA
  int reoptimize_every = 1;   // prediction rate (Figure 11)
  // Event-driven control (mode=event in the CLIs): instead of
  // re-optimizing on the reoptimize_every tick, re-solve only when a
  // re-optimization event is pending — preemption notices and lease
  // expirations enqueued via notify_event(), or availability changes
  // observed at a step boundary. Reaction latency then is the
  // (incremental) solve time rather than the tick period; the warm-
  // started DP makes the solve cheap. Interval 0 always solves (the
  // bootstrap plan).
  bool event_driven = false;
  // Coalescing window for notify_event(): events landing within this
  // many milliseconds (simulated time) of the previous pending event
  // are counted as scheduler.events_coalesced and folded into the
  // same re-solve.
  double debounce_ms = 250.0;
  int mc_trials = 256;
  std::uint64_t seed = 123;
  double interval_s = 60.0;
  // Multiplicative jitter on actual migration stalls vs the
  // estimator's prediction (Figure 18a); 0 = deterministic.
  double cost_noise_stddev = 0.0;
  // Voluntary pipeline-depth changes (no preemption forcing them) must
  // improve the objective's rate (training: throughput) by at least
  // this fraction over keeping the current depth; re-planning every
  // interval under noisy forecasts would otherwise thrash between
  // depths (the paper's case study shows Parcae holding depth 7 for 8
  // intervals despite some unused instances, §10.4).
  double depth_change_hysteresis = 0.15;
  // Cluster capacity: bounds the predictor's guard rails and the
  // forecast clamp (32 for the paper's cluster; the in-process driver
  // uses 64).
  int max_instances = 32;
  // Pipeline-depth bounds for the §8 adaptation. 0 = derive from the
  // model (memory-model minimum / partition_units); the real cluster
  // overrides them with what its layers actually allow.
  int min_depth_override = 0;
  int max_depth_override = 0;
  // Observability sinks (non-owning, both optional). With no registry
  // injected the core records into one it owns — metrics are always
  // on and metrics_snapshot() is never empty after a step. A tracer
  // additionally emits predict/optimize/plan-migration spans as
  // Chrome trace events.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* tracer = nullptr;
  // kStatic: the fixed provisioning.
  ParallelConfig static_config = kIdleConfig;
};

struct MigrationLogEntry {
  int interval = 0;
  MigrationKind kind = MigrationKind::kNone;
  double estimated_s = 0.0;
  double actual_s = 0.0;
};

// Everything the core decided for one interval.
struct SchedulerDecision {
  ParallelConfig config;    // configuration advised for this interval
  MigrationPlan plan;       // migration realizing it from the damaged state
  // Plan stall with the cost-noise jitter applied (what the migration
  // will actually cost; backends charge or execute it).
  double stall_s = 0.0;
  // Optimizer advice for the next interval (what `config` will be
  // adapted from next time).
  ParallelConfig planned_next;
  // Availability forecast issued this interval (empty when the
  // optimizer was not re-run; Figure 11's lower prediction rates).
  std::vector<int> forecast;
};

class SchedulerCore {
 public:
  // `oracle` supplies the true future availability of the instances
  // this core may use (the whole pool for a single job, its lease for a
  // fleet job); in kOracle mode its series is copied here, and other
  // modes ignore it. `objective` is what the core maximizes
  // (non-owning; must outlive the core); null selects training liveput
  // over this core's ThroughputModel.
  SchedulerCore(ModelProfile model, SchedulerCoreOptions options,
                const SpotTrace* oracle = nullptr,
                const SchedulingObjective* objective = nullptr);

  // Restores the pristine post-construction state (history, RNG,
  // telemetry, migration log).
  void reset();

  // One pass of Algorithm 1 for interval `interval_index`.
  SchedulerDecision step(int interval_index,
                         const AvailabilityObservation& observed,
                         double interval_s);

  // Event-driven mode: enqueue a re-optimization event (a preemption
  // notice, lease expiry, allocation grant...) observed at simulated
  // time `now_s`. Events within options.debounce_ms of the previous
  // pending one are coalesced; the next step() re-solves once and
  // drains the queue. No-op unless options.event_driven.
  void notify_event(std::string_view kind, double now_s);
  int pending_events() const { return pending_events_; }

  const SchedulerCoreOptions& options() const { return options_; }
  const ModelProfile& model() const { return model_; }
  const ThroughputModel& throughput_model() const { return throughput_; }
  // The interval DP behind every re-solve (tests invalidate a twin
  // core's before each step to compare warm and cold decisions).
  IntervalDp& optimizer() { return optimizer_; }
  const std::vector<MigrationLogEntry>& migration_log() const {
    return migration_log_;
  }
  // Structured audit trail of everything the scheduler saw and did.
  const EventLog& telemetry() const { return telemetry_; }
  // Mutable access for executor backends (the spot driver's cluster
  // appends fault/recovery events into the same trail).
  EventLog& event_log() { return telemetry_; }

  // The registry this core records into (the injected one, else the
  // core-owned instance).
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::TraceWriter* tracer() const { return options_.tracer; }
  // Counters (preemptions seen, reoptimizations, migrations planned,
  // hysteresis suppressions, ...) and latency histograms (optimizer,
  // MC sampler, migration planner) accumulated so far.
  obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_->snapshot();
  }

 private:
  std::vector<int> predict(int interval_index) const;
  ClusterSnapshot observe_damage(const AvailabilityObservation& observed,
                                 int prev_available);
  // §8 adaptation of `target` to `available` instances, releasing
  // width beyond the target when the objective caps it.
  ParallelConfig adapt(ParallelConfig target, int available) const;
  int min_depth() const;
  int max_depth() const;

  // Metric/span names in the objective's family ("scheduler" or
  // "serve.scheduler"), built once at construction so the hot path
  // never concatenates.
  struct MetricNames {
    std::string intervals, available, preemptions_seen, allocations_seen,
        hysteresis_suppressions, config_changes, migrations_planned,
        migration_stall_s, drain_s, reoptimizations, plan_value, span_step,
        events_enqueued, events_coalesced, event_reoptimizations,
        span_event_latency;
  };
  static MetricNames make_names(const ObjectiveTraits& traits);

  ModelProfile model_;
  SchedulerCoreOptions options_;
  // kOracle: the oracle's availability series at options_.interval_s.
  std::optional<std::vector<int>> oracle_series_;
  // Declared before the planner/optimizer so metrics_ is resolved
  // when they capture it.
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;
  ThroughputModel throughput_;
  LiveputObjective liveput_;
  const SchedulingObjective* objective_;  // the injected one or &liveput_
  MetricNames names_;
  MigrationPlanner planner_;
  IntervalDp optimizer_;
  std::unique_ptr<AvailabilityPredictor> predictor_;

  // Mutable run state.
  Rng rng_{0};
  std::vector<double> history_;
  ParallelConfig current_ = kIdleConfig;
  ParallelConfig planned_next_ = kIdleConfig;
  int prev_available_ = 0;
  // Event-driven mode: re-optimization events waiting for the next
  // step, and the time of the most recent one (debounce anchor).
  int pending_events_ = 0;
  double last_event_s_ = -1.0e18;
  std::vector<MigrationLogEntry> migration_log_;
  EventLog telemetry_;
};

}  // namespace parcae
