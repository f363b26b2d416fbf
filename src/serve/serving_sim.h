// ServingSimulator: replays a spot-availability trace against a
// ServingScheduler while playing every request through event-level
// continuous batching (mirrors src/runtime/cluster_sim.* for the
// serving workload; docs/serving.md).
//
// Each scheduling interval:
//   1. the trace, observed by simulate()'s rule (observe_interval in
//      trace/spot_trace.h, with the "sim.unpredicted_preempt" fault
//      point), fixes the available instances; the scheduler's decision
//      fixes the serving configuration and its reconfiguration stall,
//   2. the arrival generator's requests for the interval are admitted
//      round-robin into per-replica bounded queues (the
//      "serve.admission" fault point force-drops individual requests),
//   3. each replica executes continuous batches: a batch starts when
//      the replica is free and requests have arrived, takes the
//      ReplicaQueueModel's event-level execution time, and occupies
//      the replica for the bottleneck-stage time so consecutive
//      batches pipeline,
//   4. per-request latencies are scored against the SLO; queues carry
//      across intervals; a reconfiguration flushes the old replicas'
//      queues into the new ones (order-preserving) after the stall.
//
// Determinism: everything downstream of (trace, seeds) is exact —
// request accounting and the advised-config sequence are bit-identical
// across reruns, including under injected faults
// (tests/serve_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_config.h"
#include "serve/arrival.h"
#include "serve/serving_scheduler.h"
#include "trace/spot_trace.h"

namespace parcae {
class FaultInjector;
class SloEngine;
namespace obs {
class TimeSeriesRecorder;
}  // namespace obs
}  // namespace parcae

namespace parcae::serve {

struct ServingIntervalRecord {
  double time_s = 0.0;
  int available = 0;
  ParallelConfig config;
  double offered_rps = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t good = 0;
  std::uint64_t dropped = 0;
  double p99_ms = 0.0;       // completed-this-interval tail latency
  std::uint64_t queue_depth = 0;  // queued at interval end
  double stall_s = 0.0;
};

struct ServingSimResult {
  std::string policy;
  std::string trace;
  double duration_s = 0.0;
  std::uint64_t requests_arrived = 0;
  std::uint64_t requests_served = 0;   // completed (within SLO or not)
  std::uint64_t requests_good = 0;     // completed within the SLO
  std::uint64_t requests_dropped = 0;  // admission-refused or injected
  std::uint64_t requests_carried = 0;  // still queued at the end
  std::uint64_t slo_violations = 0;    // completed-late + dropped
  double goodput_rps = 0.0;            // good / duration
  double slo_attainment = 0.0;         // good / arrived
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;  // over all completed
  double spot_cost_usd = 0.0;          // instances held x spot price
  // USD per 1M within-SLO requests; infinity when none.
  double cost_per_million_usd = 0.0;
  int config_changes = 0;
  // Advised configuration per interval — the determinism pin.
  std::vector<ParallelConfig> advised;
  std::vector<ServingIntervalRecord> timeline;
  obs::MetricsSnapshot metrics;
};

struct ServingSimOptions {
  double interval_s = 60.0;
  bool record_timeline = true;
  // Observability sinks, all non-owning and optional — wired exactly
  // like SimulationOptions (cluster_sim.h): the SLO engine is pointed
  // at the registry/series/injector and evaluated once per interval,
  // stamped with the interval's start.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TimeSeriesRecorder* timeseries = nullptr;
  FaultInjector* faults = nullptr;
  SloEngine* slo = nullptr;
  // Per-request JSONL sink (latency audit; trace_tool requests reads
  // it). One line per completion {"t":..,"latency_ms":..,"ok":0|1} or
  // drop {"t":..,"dropped":1}. Empty = off.
  std::string requests_jsonl_path;
};

// Runs `scheduler` over `trace` for `intervals` scheduling intervals
// (clamped to the trace length), generating load from `arrivals`.
ServingSimResult simulate_serving(ServingScheduler& scheduler,
                                  ArrivalGenerator& arrivals,
                                  const SpotTrace& trace, int intervals,
                                  const ServingSimOptions& options);

}  // namespace parcae::serve
