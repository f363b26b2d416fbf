// Cluster simulator: replays a spot-availability trace against a
// training policy and accounts committed samples, GPU hours by
// category (Figure 12), and money (Table 2).
//
// The simulation is interval-quantized with the paper's T = 60 s
// scheduling interval (§5.2 assumes preemptions/allocations take
// effect at interval boundaries; the collected traces are minute-
// aligned). Each interval the policy sees the actual availability and
// returns what it ran, how long it stalled, and what it committed;
// the simulator integrates the ledgers.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "parallel/parallel_config.h"
#include "runtime/pricing.h"
#include "trace/spot_trace.h"

namespace parcae {

class FaultInjector;
class SloEngine;

namespace obs {
class TraceWriter;
class TimeSeriesRecorder;
}  // namespace obs

// What a policy decided/experienced during one interval.
struct IntervalDecision {
  ParallelConfig config;          // configuration run this interval
  double stall_s = 0.0;           // time spent not training
  double throughput = 0.0;        // samples/s while training
  double samples_committed = 0.0; // net new committed samples
  double samples_lost = 0.0;      // previously earned progress destroyed
  double gpu_s_redundant = 0.0;   // redundant computation (Bamboo)
  std::string note;               // human-readable event description
};

// Availability change the policy is informed about (the core's
// observation under the simulator's historical name).
using AvailabilityEvent = AvailabilityObservation;

// Interface every training system implements (Parcae and baselines).
class SpotTrainingPolicy {
 public:
  virtual ~SpotTrainingPolicy() = default;

  virtual std::string name() const = 0;

  // Called once before the first interval.
  virtual void reset() = 0;

  // One scheduling interval of length `interval_s`.
  virtual IntervalDecision on_interval(int interval_index,
                                       const AvailabilityEvent& event,
                                       double interval_s) = 0;

  // $/hour of supporting on-demand resources (ParcaePS hosts, cloud
  // checkpoint storage). Charged for the whole run.
  virtual double support_cost_usd_per_hour() const { return 0.0; }
};

// ---------------------------------------------------------------------------

struct GpuHoursBreakdown {
  double effective = 0.0;    // committed computation
  double redundant = 0.0;    // Bamboo-style redundant computation
  double handling = 0.0;     // checkpoint/restart/migration stalls
  double lost = 0.0;         // destroyed work (rollbacks, preemptions)
  double unutilized = 0.0;   // idle instances

  double total() const {
    return effective + redundant + handling + lost + unutilized;
  }
};

struct IntervalRecord {
  double time_s = 0.0;
  int available = 0;
  ParallelConfig config;
  double throughput = 0.0;          // samples/s achieved (net of stall)
  double cumulative_samples = 0.0;
  std::string note;
};

struct SimulationResult {
  std::string policy;
  std::string trace;
  double duration_s = 0.0;  // intervals run x interval_s
  double committed_samples = 0.0;
  double committed_units = 0.0;     // tokens or images
  double avg_sample_throughput = 0.0;
  double avg_unit_throughput = 0.0;
  GpuHoursBreakdown gpu_hours;
  double spot_cost_usd = 0.0;
  double support_cost_usd = 0.0;
  double total_cost_usd = 0.0;
  // USD per unit (token/image); infinity when nothing was committed.
  double cost_per_unit = 0.0;
  std::vector<IntervalRecord> timeline;
  // Everything recorded during the run: simulator-side instruments
  // plus whatever the policy wrote into the shared registry (the
  // injected one, else a run-local instance).
  obs::MetricsSnapshot metrics;
};

struct SimulationOptions {
  double interval_s = 60.0;
  double units_per_sample = 1.0;  // tokens per sample for NLP models
  Pricing pricing;
  bool record_timeline = true;
  bool instances_are_ondemand = false;  // the on-demand baseline
  int gpus_per_instance = 1;            // Fig 10: multi-GPU instances
  // Observability sinks (non-owning, all optional). Inject the same
  // registry into the policy (SchedulerCoreOptions::metrics) to get
  // one merged snapshot and the liveput-estimate column in the time
  // series. The recorder gains one row per scheduling interval; the
  // tracer gains execute-interval spans and per-interval counters.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* tracer = nullptr;
  obs::TimeSeriesRecorder* timeseries = nullptr;
  // Fault injection (non-owning, optional). The trace is observed
  // through observe_interval (trace/spot_trace.h), so each interval
  // where the "sim.unpredicted_preempt" point fires, one instance
  // vanishes beyond what the trace says. The injector is rewired to
  // the run's registry so its fault.* counters land in the result
  // snapshot.
  FaultInjector* faults = nullptr;
  // SLO rule engine (non-owning, optional). simulate() points it at
  // the run's registry, time series, and fault injector, then
  // evaluates every rule at the end of each interval (after the
  // series row is recorded), stamped with the interval's start, so
  // alerts carry the interval they fired in.
  SloEngine* slo = nullptr;
};

// Runs `policy` over the instances `trace` makes available and returns
// the integrated result. The trace is the whole pool for a single job
// or, for a fleet job, its lease (the arbiter's per-interval grants).
SimulationResult simulate(SpotTrainingPolicy& policy, const SpotTrace& trace,
                          const SimulationOptions& options);

}  // namespace parcae
