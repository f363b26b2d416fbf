#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/fault.h"
#include "core/slo.h"
#include "obs/timeseries.h"
#include "runtime/pricing.h"

namespace parcae::serve {
namespace {

// Exact order statistic: the element of rank floor(q * n), clamped to
// n - 1, in ascending order (so for n = 100 the p99 is the maximum); 0
// when empty. Permutes `xs` in place (nth_element).
double percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(xs.size()) - 1.0,
                       q * static_cast<double>(xs.size())));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  return xs[rank];
}

struct Replica {
  std::deque<double> queue;      // admitted arrival timestamps, ascending
  std::vector<double> incoming;  // this interval's assigned arrivals
  double free_at = 0.0;
};

}  // namespace

ServingSimResult simulate_serving(ServingScheduler& scheduler,
                                  ArrivalGenerator& arrivals,
                                  const SpotTrace& trace, int intervals,
                                  const ServingSimOptions& options) {
  const double T = options.interval_s;
  ServingSimResult result;
  result.policy = serving_mode_name(scheduler.options().mode);
  result.trace = trace.name();

  const std::vector<int> series = trace.availability_series(T);
  const int I = std::min<int>(intervals, static_cast<int>(series.size()));
  if (I <= 0) return result;
  result.duration_s = I * T;
  arrivals.prepare(I);

  obs::MetricsRegistry local_metrics;
  obs::MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : &local_metrics;
  auto& c_requests = metrics->counter("serve.requests");
  auto& c_served = metrics->counter("serve.served");
  auto& c_violations = metrics->counter("serve.slo_violations");
  auto& c_dropped = metrics->counter("serve.dropped");
  auto& g_goodput = metrics->gauge("serve.goodput");
  auto& g_p99 = metrics->gauge("serve.p99_latency_ms");
  auto& g_queue = metrics->gauge("serve.queue_depth");
  auto& g_replicas = metrics->gauge("serve.replicas");
  auto& h_latency = metrics->histogram("serve.latency_ms");

  if (options.faults != nullptr) options.faults->set_metrics(metrics);
  if (options.slo != nullptr) {
    options.slo->set_metrics(metrics);
    options.slo->set_timeseries(options.timeseries);
    options.slo->set_fault_injector(options.faults);
  }

  std::ofstream jsonl;
  if (!options.requests_jsonl_path.empty())
    jsonl.open(options.requests_jsonl_path);
  char line[128];

  const ReplicaQueueModel& qm = scheduler.queue_model();
  const double slo_s = qm.options().slo_ms / 1000.0;
  const int max_batch = qm.options().max_batch;
  const int queue_cap = qm.options().admission_queue_cap;

  std::vector<Replica> replicas;
  ParallelConfig running = kIdleConfig;
  AvailabilityObservation observed;
  std::uint64_t rr = 0;  // round-robin admission cursor

  std::vector<double> offsets;          // reused arrival buffer
  std::vector<double> interval_lat_ms;  // reused per-interval latencies
  std::vector<double> all_lat_ms;
  std::vector<double> carry;  // reused reconfiguration flush buffer
  std::vector<double> batch;  // reused batch arrival times
  // batch_time[b] = qm.batch_execution(running.pp, b), filled on demand
  // and emptied when the running pipeline depth changes.
  std::vector<ServeBatchTime> batch_time;

  for (int i = 0; i < I; ++i) {
    const double t0 = i * T;
    const double t_end = t0 + T;
    observed = observe_interval(series, static_cast<std::size_t>(i),
                                observed, options.faults);
    const int avail = observed.available;

    const SchedulerDecision decision = scheduler.step(i, observed, T);
    const ParallelConfig config = decision.config;
    result.advised.push_back(config);
    if (i > 0 && config != running) ++result.config_changes;

    // Reconfiguration: flush the old replicas' queues (by arrival
    // order) and redistribute round-robin into the new replica set;
    // every new replica starts serving after the stall.
    const int D = config.valid() ? config.dp : 0;
    if (config != running || static_cast<int>(replicas.size()) != D) {
      carry.clear();
      for (Replica& r : replicas)
        for (double t : r.queue) carry.push_back(t);
      std::sort(carry.begin(), carry.end());
      replicas.assign(static_cast<std::size_t>(D), Replica{});
      for (std::size_t j = 0; j < carry.size(); ++j) {
        if (D == 0) break;
        replicas[j % static_cast<std::size_t>(D)].queue.push_back(carry[j]);
      }
      if (D == 0 && !carry.empty()) {
        // Suspended with work queued: the flushed requests drop.
        result.requests_dropped += carry.size();
        result.slo_violations += carry.size();
        c_dropped.add(static_cast<double>(carry.size()));
        if (jsonl.is_open())
          for (double t : carry) {
            std::snprintf(line, sizeof line, "{\"t\":%.3f,\"dropped\":1}\n",
                          t);
            jsonl << line;
          }
      }
      if (config.pp != running.pp) batch_time.clear();
      running = config;
      rr = 0;
    }
    const double serve_start = t0 + std::max(0.0, decision.stall_s);
    for (Replica& r : replicas) r.free_at = std::max(r.free_at, serve_start);

    // Admission routing: this interval's arrivals go round-robin
    // across replicas (the "serve.admission" fault point force-drops
    // individual requests here). The bounded-queue drop decision is
    // made later, interleaved with service, so the cap binds on the
    // instantaneous backlog — not on a whole interval's worth of
    // arrivals stacked up front.
    arrivals.arrivals(i, offsets);
    std::uint64_t arrived_i = offsets.size();
    std::uint64_t dropped_i = 0;
    result.requests_arrived += arrived_i;
    c_requests.add(static_cast<double>(arrived_i));
    for (Replica& r : replicas) r.incoming.clear();
    for (double off : offsets) {
      const double t = t0 + off;
      bool drop = D == 0;
      if (!drop && options.faults != nullptr &&
          options.faults->should_fire("serve.admission"))
        drop = true;
      if (!drop) {
        replicas[static_cast<std::size_t>(rr % static_cast<std::uint64_t>(D))]
            .incoming.push_back(t);
        ++rr;
      } else {
        ++dropped_i;
        if (jsonl.is_open()) {
          std::snprintf(line, sizeof line, "{\"t\":%.3f,\"dropped\":1}\n", t);
          jsonl << line;
        }
      }
    }

    // Continuous batching per replica until the interval ends,
    // admissions interleaved in timestamp order. A batch starts when
    // the replica is free and its queue's head has arrived; it takes
    // everything admitted by then, up to max_batch. The replica is
    // re-usable after the bottleneck-stage occupancy; the batch
    // completes after the full pipeline latency. An arrival is dropped
    // iff the queue sits at its cap when the request shows up.
    interval_lat_ms.clear();
    std::uint64_t served_i = 0, good_i = 0;
    for (Replica& r : replicas) {
      std::size_t next = 0;
      const auto admit = [&](double t) {
        if (static_cast<int>(r.queue.size()) >= queue_cap) {
          ++dropped_i;
          if (jsonl.is_open()) {
            std::snprintf(line, sizeof line, "{\"t\":%.3f,\"dropped\":1}\n",
                          t);
            jsonl << line;
          }
        } else {
          r.queue.push_back(t);
        }
      };
      while (true) {
        if (r.queue.empty()) {
          if (next >= r.incoming.size()) break;
          admit(r.incoming[next++]);  // queue empty: always below cap
          continue;
        }
        const double start = std::max(r.free_at, r.queue.front());
        // Everything arriving by the batch start is admitted (or
        // dropped at the cap) before the batch drains the queue.
        while (next < r.incoming.size() && r.incoming[next] <= start)
          admit(r.incoming[next++]);
        if (start >= t_end) break;  // carries into the next interval
        batch.clear();
        while (!r.queue.empty() &&
               static_cast<int>(batch.size()) < max_batch &&
               r.queue.front() <= start) {
          batch.push_back(r.queue.front());
          r.queue.pop_front();
        }
        while (batch_time.size() <= batch.size())
          batch_time.push_back(qm.batch_execution(
              running.pp, static_cast<int>(batch_time.size())));
        const ServeBatchTime exec = batch_time[batch.size()];
        const double completion = start + exec.latency_s;
        r.free_at = start + exec.occupancy_s;
        for (double arrival : batch) {
          const double latency = completion - arrival;
          const bool ok = latency <= slo_s;
          ++served_i;
          if (ok) ++good_i;
          const double ms = latency * 1000.0;
          interval_lat_ms.push_back(ms);
          all_lat_ms.push_back(ms);
          if (jsonl.is_open()) {
            std::snprintf(line, sizeof line,
                          "{\"t\":%.3f,\"latency_ms\":%.3f,\"ok\":%d}\n",
                          completion, ms, ok ? 1 : 0);
            jsonl << line;
          }
        }
      }
      // Arrivals after the last batch start of the interval: the queue
      // only grows from here, so the cap check is final.
      while (next < r.incoming.size()) admit(r.incoming[next++]);
    }
    result.requests_dropped += dropped_i;
    result.slo_violations += dropped_i;
    c_dropped.add(static_cast<double>(dropped_i));
    result.requests_served += served_i;
    result.requests_good += good_i;
    result.slo_violations += served_i - good_i;
    c_served.add(static_cast<double>(served_i));
    c_violations.add(static_cast<double>(served_i - good_i + dropped_i));

    // One histogram lock per interval, in completion order, before
    // percentile() permutes the buffer and before any per-interval
    // reader (gauges, time series, SLO rules) runs.
    h_latency.observe(interval_lat_ms);

    std::uint64_t queued = 0;
    for (const Replica& r : replicas) queued += r.queue.size();
    const double p99_i = percentile(interval_lat_ms, 0.99);
    const double goodput_i = static_cast<double>(good_i) / T;
    g_goodput.set(goodput_i);
    g_p99.set(p99_i);
    g_queue.set(static_cast<double>(queued));
    g_replicas.set(static_cast<double>(D));

    result.spot_cost_usd += config.valid()
                                ? config.instances() * T *
                                      Pricing{}.spot_gpu_usd_per_second()
                                : 0.0;

    if (options.timeseries != nullptr) {
      options.timeseries->begin_row();
      options.timeseries->set("t_s", t0);
      options.timeseries->set("available", avail);
      options.timeseries->set("replicas", D);
      options.timeseries->set("pipeline_depth", config.valid() ? config.pp : 0);
      options.timeseries->set("offered_rps", arrivals.realized_rps(i));
      options.timeseries->set("goodput_rps", goodput_i);
      options.timeseries->set("p99_latency_ms", p99_i);
      options.timeseries->set("queue_depth", static_cast<double>(queued));
      options.timeseries->set("dropped", static_cast<double>(dropped_i));
      options.timeseries->set("stall_s", decision.stall_s);
    }
    if (options.slo != nullptr) options.slo->evaluate(i, t0);

    if (options.record_timeline) {
      ServingIntervalRecord rec;
      rec.time_s = t0;
      rec.available = avail;
      rec.config = config;
      rec.offered_rps = arrivals.realized_rps(i);
      rec.arrived = arrived_i;
      rec.served = served_i;
      rec.good = good_i;
      rec.dropped = dropped_i;
      rec.p99_ms = p99_i;
      rec.queue_depth = queued;
      rec.stall_s = decision.stall_s;
      result.timeline.push_back(rec);
    }
  }

  for (const Replica& r : replicas) result.requests_carried += r.queue.size();

  result.goodput_rps =
      static_cast<double>(result.requests_good) / result.duration_s;
  result.slo_attainment =
      result.requests_arrived > 0
          ? static_cast<double>(result.requests_good) /
                static_cast<double>(result.requests_arrived)
          : 0.0;
  result.p50_ms = percentile(all_lat_ms, 0.50);
  result.p95_ms = percentile(all_lat_ms, 0.95);
  result.p99_ms = percentile(all_lat_ms, 0.99);
  result.cost_per_million_usd =
      result.requests_good > 0
          ? result.spot_cost_usd * 1e6 /
                static_cast<double>(result.requests_good)
          : std::numeric_limits<double>::infinity();
  result.metrics = metrics->snapshot();
  return result;
}

}  // namespace parcae::serve
