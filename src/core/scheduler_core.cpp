#include "core/scheduler_core.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/table.h"
#include "obs/profile_span.h"
#include "predict/guards.h"

namespace parcae {

SchedulerCore::SchedulerCore(ModelProfile model, SchedulerCoreOptions options,
                             const SpotTrace* oracle,
                             const SchedulingObjective* objective)
    : model_(std::move(model)),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics : &own_metrics_),
      throughput_(model_),
      liveput_(&throughput_),
      objective_(objective != nullptr ? objective : &liveput_),
      names_(make_names(objective_->traits())),
      planner_(CostEstimator(model_), metrics_),
      optimizer_(objective_, CostEstimator(model_),
                 IntervalDpOptions{.interval_s = options.interval_s,
                                   .mc_trials = options.mc_trials,
                                   .seed = options.seed,
                                   .metrics = metrics_}),
      predictor_(make_parcae_predictor(
          static_cast<double>(options.max_instances))) {
  if (options_.mode == PredictionMode::kOracle && oracle != nullptr)
    oracle_series_ = oracle->availability_series(options_.interval_s);
  // Distributed tracing: spans from this core get deterministic ids
  // forked from the job seed (first enable wins when fleet cores share
  // one writer — the id stream stays single).
  if (options_.tracer != nullptr)
    options_.tracer->enable_trace_ids(
        obs::fork_trace_seed(options_.seed, /*component=*/1));
  reset();
}

SchedulerCore::MetricNames SchedulerCore::make_names(
    const ObjectiveTraits& traits) {
  const std::string family = std::string(traits.scheduler_family) + ".";
  // One allocation per name (family + leaf would copy, then grow).
  const auto s = [&family](std::string_view leaf) {
    std::string name;
    name.reserve(family.size() + leaf.size());
    name.append(family).append(leaf);
    return name;
  };
  return {s("intervals"),
          s("available"),
          s("preemptions_seen"),
          s("allocations_seen"),
          s("hysteresis_suppressions"),
          s("config_changes"),
          s("migrations_planned"),
          s("migration_stall_s"),
          s("drain_s"),
          s("reoptimizations"),
          s(traits.plan_value),
          s("step"),
          s("events_enqueued"),
          s("events_coalesced"),
          s("event_reoptimizations"),
          s("event_latency")};
}

void SchedulerCore::reset() {
  rng_ = Rng(options_.seed ^ objective_->traits().rng_salt);
  history_.clear();
  current_ = kIdleConfig;
  planned_next_ = kIdleConfig;
  prev_available_ = 0;
  pending_events_ = 0;
  last_event_s_ = -1.0e18;
  // Warm-started DP state belongs to the finished run; a replay must
  // behave exactly like a fresh core.
  optimizer_.invalidate();
  migration_log_.clear();
  telemetry_.clear();
  // A fresh run starts a fresh core-owned registry; an injected one
  // belongs to the caller and survives resets.
  if (metrics_ == &own_metrics_) own_metrics_.clear();
}

int SchedulerCore::min_depth() const {
  if (options_.min_depth_override > 0) return options_.min_depth_override;
  return std::max(1, throughput_.min_pipeline_depth());
}

int SchedulerCore::max_depth() const {
  if (options_.max_depth_override > 0) return options_.max_depth_override;
  return model_.partition_units;
}

ParallelConfig SchedulerCore::adapt(ParallelConfig target,
                                    int available) const {
  const ObjectiveTraits& traits = objective_->traits();
  ParallelConfig adapted = adapt_configuration(
      target, available, min_depth(), max_depth(), traits.max_pipelines);
  if (traits.cap_width && adapted.valid() && target.valid() &&
      adapted.pp == target.pp && adapted.dp > target.dp)
    adapted.dp = target.dp;
  return adapted;
}

std::vector<int> SchedulerCore::predict(int interval_index) const {
  const int I = options_.lookahead;
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(I));
  if (oracle_series_) {
    const std::vector<int>& series = *oracle_series_;
    for (int h = 1; h <= I; ++h) {
      const std::size_t idx = std::min(
          series.empty() ? std::size_t{0}
                         : series.size() - 1,
          static_cast<std::size_t>(interval_index + h));
      out.push_back(series.empty() ? 0 : series[idx]);
    }
    return out;
  }
  // ARIMA (and reactive, which uses the forecast only for idle-state
  // bookkeeping — its target ignores the future anyway).
  const std::size_t h = std::min(
      history_.size(), static_cast<std::size_t>(options_.history));
  const std::span<const double> window(history_.data() + history_.size() - h,
                                       h);
  const std::vector<double> raw = predictor_->forecast(window, I);
  for (double v : raw)
    out.push_back(std::clamp(static_cast<int>(std::lround(v)), 0,
                             options_.max_instances));
  while (static_cast<int>(out.size()) < I)
    out.push_back(out.empty() ? prev_available_ : out.back());
  return out;
}

ClusterSnapshot SchedulerCore::observe_damage(
    const AvailabilityObservation& observed, int prev_available) {
  ClusterSnapshot snapshot;
  snapshot.config = current_;
  snapshot.newly_allocated = observed.allocated;
  if (!current_.valid()) {
    snapshot.idle_alive =
        std::max(0, observed.available - observed.allocated);
    return snapshot;
  }
  snapshot.alive_per_stage.assign(static_cast<std::size_t>(current_.pp),
                                  current_.dp);
  snapshot.idle_alive = std::max(0, prev_available - current_.instances());

  // Map this interval's preemptions onto the running topology
  // uniformly (§6.1): one draw per preempted instance. A kill landing
  // on a stage with no survivors left spills to the next stage that
  // has one.
  std::vector<int>& alive = snapshot.alive_per_stage;
  for (int left = observed.preempted; left > 0; --left) {
    const int total = current_.instances() + snapshot.idle_alive;
    if (total <= 0) break;
    const auto pick =
        static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(total)));
    if (pick >= current_.instances()) {
      --snapshot.idle_alive;  // hit an idle one (pick < total: one exists)
      continue;
    }
    auto stage = static_cast<std::size_t>(pick % current_.pp);
    for (std::size_t tried = 0; tried < alive.size(); ++tried) {
      if (alive[stage] > 0) {
        --alive[stage];
        break;
      }
      stage = (stage + 1) % alive.size();
    }
  }
  return snapshot;
}

SchedulerDecision SchedulerCore::step(int interval_index,
                                      const AvailabilityObservation& observed,
                                      double interval_s) {
  // Root this interval's causal tree: everything the step does — and
  // every RPC the backend issues while executing the decision, if the
  // caller keeps the step span's context installed — shares one
  // deterministic trace id derived from (seed, interval). An already
  // active context (a driver-installed interval root) is respected.
  std::optional<obs::TraceContextScope> root;
  if (options_.tracer != nullptr && options_.tracer->trace_ids_enabled() &&
      !obs::current_trace_context().valid())
    root.emplace(obs::TraceContext{
        obs::derive_trace_id(options_.seed,
                             static_cast<std::uint64_t>(interval_index)),
        0});
  obs::ProfileSpan step_span(names_.span_step, metrics_, options_.tracer,
                             "scheduler");
  SchedulerDecision decision;
  const int available = observed.available;
  const double now = interval_index * interval_s;
  const double load = objective_->load(interval_index);
  metrics_->counter(names_.intervals).inc();
  metrics_->gauge(names_.available).set(available);
  if (observed.preempted > 0 || observed.allocated > 0) {
    telemetry_.record(now, EventCategory::kCloud,
                      observed.preempted > 0 ? "preemption" : "allocation",
                      {{"available", std::to_string(available)},
                       {"preempted", std::to_string(observed.preempted)},
                       {"allocated", std::to_string(observed.allocated)}});
    if (observed.preempted > 0) {
      metrics_->counter(names_.preemptions_seen).add(observed.preempted);
      if (options_.tracer) options_.tracer->instant("preemption", "cloud");
    }
    if (observed.allocated > 0) {
      metrics_->counter(names_.allocations_seen).add(observed.allocated);
      if (options_.tracer) options_.tracer->instant("allocation", "cloud");
    }
  }

  // -- 1. Choose the target for this interval.
  ParallelConfig desired;
  switch (options_.mode) {
    case PredictionMode::kReactive:
      desired = objective_->best_config(available, load);
      break;
    case PredictionMode::kStatic:
      desired = options_.static_config;
      break;
    default:
      desired = planned_next_.valid()
                    ? planned_next_
                    : objective_->best_config(available, load);
      break;
  }
  ParallelConfig adapted = adapt(desired, available);

  // Depth-change hysteresis: a *voluntary* re-partition must clearly
  // beat staying at the current depth (adding/dropping pipelines only).
  if (options_.mode != PredictionMode::kReactive && current_.valid() &&
      adapted.valid() && adapted.pp != current_.pp &&
      observed.preempted == 0) {
    const ParallelConfig keep = adapt(current_, available);
    if (keep.valid() && keep.pp == current_.pp &&
        objective_->rate(adapted, load) <
            objective_->rate(keep, load) *
                (1.0 + options_.depth_change_hysteresis)) {
      telemetry_.record(now, EventCategory::kDecision,
                        "hysteresis held depth",
                        {{"proposed", adapted.to_string()},
                         {"kept", keep.to_string()}});
      metrics_->counter(names_.hysteresis_suppressions).inc();
      adapted = keep;
    }
  }
  if (adapted != current_) {
    telemetry_.record(now, EventCategory::kDecision,
                      "configuration change",
                      {{"from", current_.valid() ? current_.to_string()
                                                 : "idle"},
                       {"to", adapted.valid() ? adapted.to_string()
                                              : "idle"}});
    metrics_->counter(names_.config_changes).inc();
  }

  // -- 2. Plan the live migration from the damaged current state.
  const ClusterSnapshot snapshot = observe_damage(observed, prev_available_);
  MigrationPlan plan;
  {
    obs::ProfileSpan plan_span("plan-migration", metrics_,
                               options_.tracer, "scheduler");
    plan = planner_.plan(snapshot, adapted);
  }
  // Replacing a running configuration also pays the objective's switch
  // stall (serving: draining the outgoing replicas' requests).
  const double drain = current_.valid() && adapted.valid() &&
                               adapted != current_
                           ? objective_->switch_cost(current_, load)
                           : 0.0;
  if (drain > 0.0) plan.cost.drain_s = drain;
  if (plan.kind != MigrationKind::kNone) {
    metrics_->counter(names_.migrations_planned).inc();
    metrics_->histogram(names_.migration_stall_s).observe(plan.stall_s());
    if (drain > 0.0) metrics_->histogram(names_.drain_s).observe(drain);
  }
  double stall = plan.stall_s();
  if (options_.cost_noise_stddev > 0.0 && stall > 0.0) {
    stall *= std::max(0.2, rng_.normal(1.0, options_.cost_noise_stddev));
  }
  if (plan.kind != MigrationKind::kNone &&
      plan.kind != MigrationKind::kSuspend) {
    migration_log_.push_back(
        {interval_index, plan.kind, plan.stall_s(), stall});
    telemetry_.record(
        now,
        plan.kind == MigrationKind::kRollback ? EventCategory::kCheckpoint
                                              : EventCategory::kMigration,
        migration_kind_name(plan.kind),
        {{"to", adapted.valid() ? adapted.to_string() : "idle"},
         {"stall_s", format_double(stall, 1)}});
  }
  decision.config = adapted;
  decision.plan = plan;
  decision.stall_s = stall;

  // -- 3. Plan the next interval (Algorithm 1 lines 7-8).
  history_.push_back(static_cast<double>(available));
  current_ = adapted;
  prev_available_ = available;
  if (options_.mode == PredictionMode::kProactive ||
      options_.mode == PredictionMode::kOracle) {
    bool reoptimize;
    if (options_.event_driven) {
      // Backends with an out-of-band notice channel (the spot driver)
      // enqueue events via notify_event() before stepping; tick-
      // quantized backends get one synthesized from the boundary
      // observation itself. Interval 0 always solves (bootstrap).
      if (pending_events_ == 0 &&
          (observed.preempted > 0 || observed.allocated > 0))
        notify_event(observed.preempted > 0 ? "preemption" : "allocation",
                     now);
      reoptimize = interval_index == 0 || pending_events_ > 0;
    } else {
      reoptimize =
          interval_index % std::max(1, options_.reoptimize_every) == 0;
    }
    if (reoptimize) {
      const bool event_reaction =
          options_.event_driven && pending_events_ > 0;
      metrics_->counter(names_.reoptimizations).inc();
      if (event_reaction)
        metrics_->counter(names_.event_reoptimizations).inc();
      // Reaction latency: notice -> new plan, i.e. predict + (warm-
      // started) optimize. Lands in scheduler.event_latency.ms.
      std::optional<obs::ProfileSpan> event_latency;
      if (event_reaction)
        event_latency.emplace(names_.span_event_latency, metrics_,
                              options_.tracer, "scheduler");
      std::vector<double> load_forecast;
      {
        obs::ProfileSpan predict_span("predict", metrics_,
                                      options_.tracer, "scheduler");
        decision.forecast = predict(interval_index);
        load_forecast =
            objective_->forecast_load(interval_index, options_.lookahead);
      }
      obs::ProfileSpan optimize_span("optimize", metrics_,
                                     options_.tracer, "scheduler");
      const IntervalPlan next = optimizer_.optimize(
          current_, available, decision.forecast, load_forecast);
      planned_next_ = next.next();
      metrics_->gauge(names_.plan_value).set(next.expected_value);
      pending_events_ = 0;
    }
    // Otherwise keep the previously planned target (Figure 11's lower
    // prediction rates; in event mode, quiet intervals).
  }
  decision.planned_next = planned_next_;
  return decision;
}

void SchedulerCore::notify_event(std::string_view kind, double now_s) {
  if (!options_.event_driven) return;
  metrics_->counter(names_.events_enqueued).inc();
  if (pending_events_ > 0 &&
      now_s - last_event_s_ <= options_.debounce_ms / 1000.0) {
    metrics_->counter(names_.events_coalesced).inc();
  } else {
    telemetry_.record(now_s, EventCategory::kCloud, "reoptimize event",
                      {{"kind", std::string(kind)}});
  }
  ++pending_events_;
  last_event_s_ = now_s;
}

}  // namespace parcae
