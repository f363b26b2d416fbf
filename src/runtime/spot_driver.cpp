#include "runtime/spot_driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "core/slo.h"
#include "obs/profile_span.h"
#include "obs/trace_context.h"
#include "runtime/cloud_provider.h"

namespace parcae {

namespace {

// Lease TTLs must track the driver's interval (heartbeats fire once
// per interval; 2.5 intervals tolerates one dropped heartbeat before a
// false-positive expiry). Callers who set a TTL explicitly keep it.
TrainingClusterOptions tuned_cluster_options(TrainingClusterOptions options,
                                             const SpotDriverOptions& driver) {
  if (options.agent_lease_ttl_s == TrainingClusterOptions{}.agent_lease_ttl_s)
    options.agent_lease_ttl_s = 2.5 * driver.interval_s;
  return options;
}

}  // namespace

SpotTrainingDriver::SpotTrainingDriver(TrainingClusterOptions cluster_options,
                                       const nn::Dataset* dataset,
                                       SpotDriverOptions options)
    : cluster_options_(tuned_cluster_options(cluster_options, options)),
      options_(options),
      cluster_(cluster_options_, dataset),
      // The actual MLP, so ThroughputModel and the liveput DP reason
      // about the real workload.
      profile_(mlp_profile("mlp-in-cluster", cluster_options_.layer_sizes,
                           cluster_options_.batch_size)),
      core_(profile_, core_options()) {
  // The cluster shares the core's registry and event log so one
  // report/dashboard covers decisions and fault recoveries alike.
  cluster_.set_metrics(&core_.metrics());
  cluster_.set_event_log(&core_.event_log());
  // Distributed tracing across the wire: agent-side rpc.call spans go
  // to the scheduler's writer (nesting under decision spans); hub-side
  // rpc.handle spans go to the separate hub writer, with its own
  // deterministic id stream — two files `trace_tool merge` fuses.
  if (options_.hub_tracer != nullptr) {
    options_.hub_tracer->enable_trace_ids(
        obs::fork_trace_seed(options_.seed, /*component=*/2));
    options_.hub_tracer->set_process(2, "hub");
  }
  if (options_.tracer != nullptr)
    options_.tracer->set_process(1, "scheduler");
  cluster_.set_tracers(options_.tracer, options_.hub_tracer);
  if (options_.faults != nullptr) {
    options_.faults->set_metrics(&core_.metrics());
    cluster_.set_fault_injector(options_.faults);
  }
  if (options_.slo != nullptr) {
    options_.slo->set_metrics(&core_.metrics());
    options_.slo->set_event_log(&core_.event_log());
    options_.slo->set_fault_injector(options_.faults);
  }
}

SchedulerCoreOptions SpotTrainingDriver::core_options() const {
  SchedulerCoreOptions core = options_;
  // The toy cluster can split only as deep as it has layers, and (with
  // ParcaePS restores) can always run a depth-1 pipeline.
  const int limit = cluster_.pipeline_depth_limit();
  const auto bound = [limit](int depth, int unset) {
    return depth > 0 ? std::clamp(depth, 1, limit) : unset;
  };
  core.min_depth_override = bound(core.min_depth_override, 1);
  core.max_depth_override = bound(core.max_depth_override, limit);
  return core;
}

ParallelConfig SpotTrainingDriver::clamp_to_alive(ParallelConfig advice,
                                                  int alive) {
  if (!advice.valid() || alive <= 0) return kIdleConfig;
  ParallelConfig clamped = advice;
  clamped.pp = std::min(clamped.pp, alive);
  clamped.dp = std::min(clamped.dp, alive / clamped.pp);
  return clamped.valid() ? clamped : kIdleConfig;
}

SpotDriverReport SpotTrainingDriver::run(const SpotTrace& trace) {
  SpotDriverReport report;
  core_.reset();

  TraceCloudProvider cloud(trace, options_.seed ^ 0x9e1ull);
  const auto intervals =
      static_cast<int>(trace.interval_count(options_.interval_s));

  cloud.request_instances(options_.requested_instances);
  // Cloud instance id -> cluster agent id.
  std::map<int, int> instance_to_agent;

  obs::MetricsRegistry& metrics = core_.metrics();

  // Tombstones of agent/ keys observed while the kv clock advances are
  // lease expiries — the only channel through which a silent kill()
  // surfaces (§8): the dead agent wrote nothing, its heartbeats just
  // stopped. (Graceful preemptions tombstone too, but outside the
  // advance_clock window, so they never land in this vector.)
  std::vector<std::string> expired_keys;
  const std::uint64_t watch_id = cluster_.kv().watch(
      cluster_.agent_key_prefix(),
      [&expired_keys](const std::string& key, const KvEntry& entry) {
        if (entry.deleted) expired_keys.push_back(key);
      });

  for (int i = 0; i < intervals; ++i) {
    // One trace per interval, id derived from (seed, interval): the
    // execute-interval span is the root, Algorithm 1's spans nest
    // under it, and every RPC the execution issues carries this trace
    // across the wire into the hub's handler spans.
    std::optional<obs::TraceContextScope> trace_root;
    if (core_.tracer() != nullptr && core_.tracer()->trace_ids_enabled())
      trace_root.emplace(obs::TraceContext{
          obs::derive_trace_id(options_.seed, static_cast<std::uint64_t>(i)),
          0});
    obs::ProfileSpan interval_span("execute-interval", &metrics,
                                   core_.tracer(), "driver");
    ++report.intervals;
    const double boundary = static_cast<double>(i) * options_.interval_s;
    if (options_.faults != nullptr) options_.faults->set_interval(i);
    cluster_.set_time(boundary);

    // -- liveness. Advance the lease clock (expiring agents whose
    // heartbeats stopped since last interval), then renew everyone
    // still alive. Detected deaths join the preemption count the core
    // adapts to — the scheduler learns of them the same way it would
    // from a (late) preemption notice.
    expired_keys.clear();
    if (i > 0) cluster_.kv().advance_clock(options_.interval_s);
    const int detected_deaths = static_cast<int>(expired_keys.size());
    for (const std::string& key : expired_keys) {
      metrics.counter("driver.lease_expiries_detected").inc();
      core_.event_log().record(
          boundary, EventCategory::kWarning,
          "silent agent death detected via lease expiry", {{"key", key}});
      // Event-driven mode: a lease expiry is a (late) preemption
      // signal; enqueue the re-solve now (no-op on tick scheduling).
      core_.notify_event("lease-expiry", boundary);
    }
    cluster_.heartbeat();

    // -- cloud events for this interval. The grace period is long
    // enough to finish the in-flight mini-batch (the paper enforces
    // preemption at mini-batch boundaries), so a notice takes effect
    // at this interval's boundary. A notice for an agent a fault
    // already killed silently turns the silent death graceful (the
    // lease is revoked, so it won't be reported again at expiry); it
    // only counts as a preemption if the kv still thought it alive.
    AvailabilityObservation observed;
    for (const CloudEvent& event : cloud.advance(boundary)) {
      if (event.kind == CloudEvent::Kind::kInstanceGranted) {
        const std::vector<int> agents = cluster_.allocate(1);
        instance_to_agent[event.instance_id] = agents.front();
        ++observed.allocated;
        core_.notify_event("instance-granted", boundary);
      } else {
        const auto it = instance_to_agent.find(event.instance_id);
        if (it != instance_to_agent.end()) {
          const auto record = cluster_.kv().get(
              cluster_.agent_key_prefix() + std::to_string(it->second));
          cluster_.preempt({it->second});
          instance_to_agent.erase(it);
          if (record.has_value() && record->value != "preempted") {
            ++observed.preempted;
            core_.notify_event("preemption-notice", boundary);
          }
        }
      }
    }
    observed.preempted += detected_deaths;
    // The scheduler observes availability through the KvStore — the
    // registered agent records — not through ground truth: a silently
    // killed agent stays "available" here until its lease expires (or
    // a notice arrives), which is precisely why the execution path
    // below clamps the advice to the agents actually alive.
    int kv_available = 0;
    for (const std::string& key :
         cluster_.kv().list(cluster_.agent_key_prefix())) {
      const auto record = cluster_.kv().get(key);
      if (record.has_value() && record->value != "preempted") ++kv_available;
    }
    observed.available = kv_available;

    // -- one pass of Algorithm 1: adapt the plan to reality, plan the
    // migration, forecast and optimize the next interval.
    const SchedulerDecision advice =
        core_.step(i, observed, options_.interval_s);
    report.advised.push_back(advice.config);

    // -- graceful degradation: reconfigure() must never be handed more
    // instances than are alive (unpredicted kills can race the core's
    // view). Shrink the advice to fit; when even 1x1 won't fit, hold
    // at idle — the state stays safe in ParcaePS — and resume when the
    // cloud grants capacity back.
    ParallelConfig target =
        clamp_to_alive(advice.config, cluster_.alive_count());
    if (target != advice.config) {
      metrics.counter("driver.advice_clamped").inc();
      core_.event_log().record(
          boundary, EventCategory::kWarning,
          "advised config infeasible; degraded to fit alive agents",
          {{"advised", advice.config.to_string()},
           {"executed", target.to_string()}});
    }
    if (!target.valid() && advice.config.valid())
      metrics.counter("driver.paused_intervals").inc();

    // -- execute the (possibly degraded) migration on real parameters.
    if (target != cluster_.config() || !cluster_.assignment_intact()) {
      obs::ProfileSpan reconfigure_span("reconfigure", &metrics,
                                        core_.tracer(), "driver");
      const MigrationKind kind = cluster_.reconfigure(target);
      ++report.migrations_by_kind[static_cast<std::size_t>(kind)];
      if (kind != MigrationKind::kNone && kind != MigrationKind::kSuspend) {
        metrics.counter("scheduler.migrations_executed").inc();
        metrics
            .counter(std::string("scheduler.migrations_executed.") +
                     migration_kind_name(kind))
            .inc();
      }
    }
    report.replicas_always_consistent =
        report.replicas_always_consistent && cluster_.replicas_consistent();

    // -- train. A nullopt with a broken assignment is a zero-grace
    // kill that landed mid-iteration: the sample lease was already
    // abandoned (exactly-once holds), so re-plan around the hole and
    // keep going within the same interval. Each failed pass consumes
    // one iteration slot, so this converges.
    obs::ProfileSpan train_span("train", &metrics, core_.tracer(), "driver");
    for (int it = 0; it < options_.iterations_per_interval; ++it) {
      const auto outcome = cluster_.train_iteration();
      if (!outcome) {
        if (!cluster_.assignment_intact()) {
          metrics.counter("driver.kill_recoveries").inc();
          const ParallelConfig retry_target =
              clamp_to_alive(cluster_.config(), cluster_.alive_count());
          const MigrationKind kind = cluster_.reconfigure(retry_target);
          ++report.migrations_by_kind[static_cast<std::size_t>(kind)];
          report.replicas_always_consistent =
              report.replicas_always_consistent &&
              cluster_.replicas_consistent();
          if (retry_target.valid()) continue;
          metrics.counter("driver.paused_intervals").inc();
        }
        break;  // suspended, or the epoch pool is exhausted
      }
      ++report.iterations;
      report.final_loss = outcome->loss;
      if (outcome->epoch_finished) ++report.epochs_completed;
    }
    if (options_.slo != nullptr) options_.slo->evaluate(i, boundary);
  }
  cluster_.kv().unwatch(watch_id);

  report.ps_rollbacks = cluster_.rollbacks();
  report.telemetry = core_.telemetry();
  report.metrics = core_.metrics_snapshot();
  const auto counter = [&metrics](const char* name) {
    return static_cast<long long>(metrics.counter(name).value() + 0.5);
  };
  report.faults_injected = counter("fault.injected");
  report.unpredicted_kills_survived = counter("cluster.unpredicted_kills");
  report.mid_iteration_kills = counter("cluster.mid_iteration_kills");
  report.migrations_aborted = counter("cluster.migrations_aborted");
  report.ps_push_retries = counter("retry.ps.push.retries");
  report.ps_refreshes = counter("cluster.ps_refreshes");
  report.paused_intervals = counter("driver.paused_intervals");
  report.lease_expirations =
      static_cast<long long>(cluster_.kv().leases_expired());
  return report;
}

}  // namespace parcae
