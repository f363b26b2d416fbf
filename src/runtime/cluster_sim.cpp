#include "runtime/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/fault.h"
#include "core/slo.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"

namespace parcae {

SimulationResult simulate(SpotTrainingPolicy& policy, const SpotTrace& trace,
                          const SimulationOptions& options) {
  SimulationResult result;
  result.policy = policy.name();
  result.trace = trace.name();
  result.duration_s = trace.duration_s();

  obs::MetricsRegistry local_metrics;
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : &local_metrics;
  obs::TraceWriter* tracer = options.tracer;
  obs::TimeSeriesRecorder* series_out = options.timeseries;
  const std::string& mp = options.metric_prefix;

  policy.reset();

  const std::vector<int> series =
      trace.availability_series(options.interval_s);
  // Metric names with the prefix applied, built once per run.
  const std::string n_unpredicted = mp + "sim.unpredicted_preempts";
  const std::string n_span = mp + "execute-interval";
  const std::string n_intervals = mp + "sim.intervals";
  const std::string n_preemptions = mp + "sim.preemptions";
  const std::string n_allocations = mp + "sim.allocations";
  const std::string n_stall = mp + "sim.stall_s";
  const std::string n_liveput = mp + "scheduler.liveput_expected_samples";
  const double T = options.interval_s;
  const double gpu_price_per_s =
      options.instances_are_ondemand
          ? options.pricing.ondemand_gpu_usd_per_second()
          : options.pricing.spot_gpu_usd_per_second();

  if (options.faults != nullptr) options.faults->set_metrics(metrics);
  if (options.slo != nullptr) {
    options.slo->set_metrics(metrics);
    options.slo->set_timeseries(series_out);
    options.slo->set_alert_metrics(metrics);
    options.slo->set_fault_injector(options.faults);
  }

  double committed = 0.0;
  int prev_available = series.empty() ? 0 : series.front();

  for (std::size_t i = 0; i < series.size(); ++i) {
    int avail = series[i];
    if (options.faults != nullptr) {
      options.faults->set_interval(static_cast<int>(i));
      // An unpredicted preemption: one instance beyond the trace
      // disappears at this boundary, blind-siding the forecaster.
      if (avail > 0 &&
          options.faults->should_fire("sim.unpredicted_preempt")) {
        --avail;
        metrics->counter(n_unpredicted).inc();
      }
    }
    AvailabilityEvent event;
    event.available = avail;
    event.preempted = std::max(0, prev_available - avail);
    event.allocated = std::max(0, avail - prev_available);
    prev_available = avail;

    IntervalDecision d;
    {
      obs::ProfileSpan interval_span(n_span, metrics, tracer, "sim");
      d = policy.on_interval(static_cast<int>(i), event, T);
    }
    metrics->counter(n_intervals).inc();
    if (event.preempted > 0)
      metrics->counter(n_preemptions).add(event.preempted);
    if (event.allocated > 0)
      metrics->counter(n_allocations).add(event.allocated);

    // Clamp to physical limits.
    d.stall_s = std::clamp(d.stall_s, 0.0, T);
    const double train_s = T - d.stall_s;
    committed += d.samples_committed - d.samples_lost;
    committed = std::max(0.0, committed);

    // GPU-second ledger. Total capacity this interval:
    const double gpus = static_cast<double>(event.available) *
                        options.gpus_per_instance;
    const double capacity = gpus * T;
    const double used_gpus = static_cast<double>(d.config.instances()) *
                             options.gpus_per_instance;
    const double active = std::min(used_gpus, gpus);
    double effective = active * train_s;
    double redundant = std::min(d.gpu_s_redundant, effective);
    effective -= redundant;
    // Work destroyed: attribute the GPU-seconds that earned the lost
    // samples (at the interval's own throughput when known).
    double lost = 0.0;
    if (d.samples_lost > 0.0 && d.throughput > 0.0)
      lost = std::min(effective,
                      d.samples_lost / d.throughput * active);
    effective -= lost;
    const double handling = active * d.stall_s;
    const double unutilized =
        std::max(0.0, capacity - effective - redundant - lost - handling);

    result.gpu_hours.effective += effective / 3600.0;
    result.gpu_hours.redundant += redundant / 3600.0;
    result.gpu_hours.handling += handling / 3600.0;
    result.gpu_hours.lost += lost / 3600.0;
    result.gpu_hours.unutilized += unutilized / 3600.0;

    result.spot_cost_usd += capacity * gpu_price_per_s;

    if (options.record_timeline) {
      IntervalRecord rec;
      rec.time_s = static_cast<double>(i) * T;
      rec.available = event.available;
      rec.config = d.config;
      rec.throughput = (d.samples_committed - d.samples_lost) / T;
      rec.cumulative_samples = committed;
      rec.note = d.note;
      result.timeline.push_back(std::move(rec));
    }
    metrics->counter(n_stall).add(d.stall_s);
    if (tracer != nullptr) {
      tracer->counter("available", static_cast<double>(event.available));
      tracer->counter("live_instances",
                      static_cast<double>(d.config.instances()));
      tracer->counter("cumulative_samples", committed);
    }
    if (series_out != nullptr) {
      series_out->begin_row();
      series_out->set("t_s", static_cast<double>(i) * T);
      series_out->set("available", event.available);
      series_out->set("live_instances", d.config.instances());
      // Populated only when the policy's SchedulerCore shares the
      // injected registry; 0 otherwise (the query never creates it).
      series_out->set("liveput_expected_samples",
                      metrics->gauge_value(n_liveput));
      series_out->set("throughput",
                      (d.samples_committed - d.samples_lost) / T);
      series_out->set("stall_s", d.stall_s);
      series_out->set("cumulative_samples", committed);
      series_out->set("cost_usd",
                      result.spot_cost_usd +
                          policy.support_cost_usd_per_hour() *
                              static_cast<double>(i + 1) * T / 3600.0);
    }
    if (options.slo != nullptr)
      options.slo->evaluate(static_cast<int>(i),
                            static_cast<double>(i) * T);
  }

  result.committed_samples = committed;
  result.committed_units = committed * options.units_per_sample;
  if (result.duration_s > 0.0) {
    result.avg_sample_throughput = committed / result.duration_s;
    result.avg_unit_throughput = result.committed_units / result.duration_s;
  }
  result.support_cost_usd = policy.support_cost_usd_per_hour() *
                            result.duration_s / 3600.0;
  result.total_cost_usd = result.spot_cost_usd + result.support_cost_usd;
  result.cost_per_unit =
      result.committed_units > 0.0
          ? result.total_cost_usd / result.committed_units
          : std::numeric_limits<double>::infinity();
  metrics->gauge(mp + "sim.committed_samples").set(result.committed_samples);
  metrics->gauge(mp + "sim.total_cost_usd").set(result.total_cost_usd);
  result.metrics = metrics->snapshot();
  return result;
}

}  // namespace parcae
