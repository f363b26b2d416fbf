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

  obs::MetricsRegistry local_metrics;
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : &local_metrics;
  obs::TraceWriter* tracer = options.tracer;
  obs::TimeSeriesRecorder* series_out = options.timeseries;

  policy.reset();

  const std::vector<int> series =
      trace.availability_series(options.interval_s);
  const double T = options.interval_s;
  result.duration_s = static_cast<double>(series.size()) * T;
  const double gpu_price_per_s =
      options.instances_are_ondemand
          ? options.pricing.ondemand_gpu_usd_per_second()
          : options.pricing.spot_gpu_usd_per_second();

  if (options.faults != nullptr) options.faults->set_metrics(metrics);
  if (options.slo != nullptr) {
    options.slo->set_metrics(metrics);
    options.slo->set_timeseries(series_out);
    options.slo->set_fault_injector(options.faults);
  }

  double committed = 0.0;
  AvailabilityEvent event;

  for (std::size_t i = 0; i < series.size(); ++i) {
    event = observe_interval(series, i, event, options.faults);

    IntervalDecision d;
    {
      obs::ProfileSpan interval_span("execute-interval", metrics, tracer,
                                     "sim");
      d = policy.on_interval(static_cast<int>(i), event, T);
    }
    metrics->counter("sim.intervals").inc();
    if (event.preempted > 0)
      metrics->counter("sim.preemptions").add(event.preempted);
    if (event.allocated > 0)
      metrics->counter("sim.allocations").add(event.allocated);

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
    metrics->counter("sim.stall_s").add(d.stall_s);
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
      series_out->set(
          "liveput_expected_samples",
          metrics->gauge_value("scheduler.liveput_expected_samples"));
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
  metrics->gauge("sim.committed_samples").set(result.committed_samples);
  metrics->gauge("sim.total_cost_usd").set(result.total_cost_usd);
  result.metrics = metrics->snapshot();
  return result;
}

}  // namespace parcae
