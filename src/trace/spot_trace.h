// Spot-instance availability traces.
//
// A SpotTrace is a timeline of instance preemption/allocation events on
// a fixed-capacity cluster. The paper collects a 12-hour trace on a
// 32-instance p3.2xlarge cluster and extracts four 1-hour segments
// (Table 1 / Figure 8). We reproduce those segments exactly (same
// average availability, preempted-instance count, allocated-instance
// count, and length) and provide stochastic generators for the
// preemption-intensity sweeps (Figure 14).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace parcae {

class FaultInjector;

// One availability-change event. `delta` is the signed change in the
// number of available instances: negative = preemptions, positive =
// allocations. The paper observes that a cloud does not preempt and
// allocate at the same instant (§5.2), so a single event never mixes.
struct TraceEvent {
  double time_s = 0.0;
  int delta = 0;

  bool is_preemption() const { return delta < 0; }
  int instance_count() const { return delta < 0 ? -delta : delta; }
};

struct TraceStats {
  double avg_instances = 0.0;       // time-weighted mean availability
  int preempted_instances = 0;      // total instances preempted
  int allocated_instances = 0;      // total instances allocated
  int preemption_events = 0;        // number of events with delta < 0
  int allocation_events = 0;        // number of events with delta > 0
  int min_instances = 0;
  int max_instances = 0;
  double duration_s = 0.0;
};

// Availability change observed at an interval boundary (the cloud-side
// inputs of Algorithm 1). Executor backends translate their own event
// streams (trace diffs, preemption notices, lease resizes) into this.
struct AvailabilityObservation {
  int available = 0;    // instances available this interval
  int preempted = 0;    // instances lost at this interval boundary
  int allocated = 0;    // instances gained at this interval boundary
};

// Interval i's observation of `series` (a trace's availability_series),
// by the one rule every trace-replaying executor shares. The
// "sim.unpredicted_preempt" fault point, asked only while an instance
// is available, takes one instance beyond the trace: a preemption no
// forecaster saw coming. `prev` is interval i - 1's observation;
// interval 0 diffs against series[0], so the pool a run starts with is
// neither preempted nor allocated. Sets the injector's interval to i.
AvailabilityObservation observe_interval(const std::vector<int>& series,
                                         std::size_t i,
                                         const AvailabilityObservation& prev,
                                         FaultInjector* faults);

class SpotTrace {
 public:
  SpotTrace() = default;

  // `events` need not be sorted; they are sorted by time on
  // construction. Availability is clamped to [0, capacity] — an event
  // pushing past a bound is truncated.
  SpotTrace(std::string name, int initial_instances, int capacity,
            double duration_s, std::vector<TraceEvent> events);

  // Builds a trace from a per-minute availability series N_0..N_{k-1}
  // (the paper's interval model with T = 60 s): N changes exactly at
  // minute boundaries. A fleet job's lease is built this way from its
  // grant series; an empty series gives an empty trace.
  static SpotTrace from_minute_series(std::string name,
                                      const std::vector<int>& series,
                                      int capacity = 32,
                                      double interval_s = 60.0);

  const std::string& name() const { return name_; }
  int initial_instances() const { return initial_; }
  int capacity() const { return capacity_; }
  double duration_s() const { return duration_s_; }
  const std::vector<TraceEvent>& events() const { return events_; }

  // Number of available instances at time t (events take effect at
  // their timestamp; t before 0 returns the initial count).
  int instances_at(double t) const;

  // Whole intervals of `interval_s` in the trace: a last partial
  // interval does not count, short of rounding error (1e-6 of an
  // interval). Every executor runs this many.
  std::size_t interval_count(double interval_s = 60.0) const;

  // Availability sampled at interval starts: N_i = instances at
  // i * interval_s, for i in [0, interval_count(interval_s)).
  std::vector<int> availability_series(double interval_s = 60.0) const;

  // The same series as doubles (predictor input).
  std::vector<double> availability_series_d(double interval_s = 60.0) const;

  TraceStats stats() const;

  // Sub-trace covering [t0, t1); event times are rebased to t0.
  SpotTrace slice(double t0, double t1, std::string name = "") const;

  // Concatenate `other` after this trace. The availability jump at the
  // seam (if any) is inserted as a synthetic event at the boundary.
  SpotTrace concat(const SpotTrace& other, std::string name = "") const;

 private:
  std::string name_;
  int initial_ = 0;
  int capacity_ = 32;
  double duration_s_ = 0.0;
  std::vector<TraceEvent> events_;  // sorted by time
};

// ---------------------------------------------------------------------------
// The paper's four canonical 1-hour segments (Table 1).

enum class TraceSegment { kHighAvailDense, kHighAvailSparse, kLowAvailDense, kLowAvailSparse };

// Short names used in the paper: HA-DP, HA-SP, LA-DP, LA-SP.
const char* trace_segment_name(TraceSegment segment);

// Returns the canonical segment; statistics match Table 1 exactly.
SpotTrace canonical_segment(TraceSegment segment);

// All four, in paper order.
std::vector<SpotTrace> all_canonical_segments();

// The full 12-hour trace of Figure 8: the four canonical segments
// embedded at fixed hours, joined by deterministic random-walk glue.
SpotTrace full_day_trace(std::uint64_t seed = 42);

// ---------------------------------------------------------------------------
// Synthetic traces.

struct SyntheticTraceOptions {
  int capacity = 32;
  double duration_s = 3600.0;
  double interval_s = 60.0;
  double target_availability = 30.0;  // mean #instances to hover around
  int preemption_events = 3;          // events of 1-2 instances each
};

// Generates the Figure-14 style traces: scale preemption intensity
// while holding average availability roughly constant (every
// preemption is compensated by an allocation 1-3 intervals later).
SpotTrace synthesize_trace(const SyntheticTraceOptions& options, Rng& rng);

// A slowly draining/refilling availability wave over 12 hours on a
// 32-instance pool — the gradual capacity trends visible in the
// paper's collected trace (Figure 8), on which trend-following
// predictors such as ARIMA have an edge over last-value carry
// (Figure 5a).
SpotTrace synthesize_drift_trace();

// Derives a k-GPU-instance trace from a single-GPU trace following
// §10.2: every k preemption events collapse into one multi-GPU
// preemption (at the last of the k), every k allocations into one
// multi-GPU allocation (at the first of the k). The returned trace
// counts *instances* (each owning k GPUs).
SpotTrace derive_multi_gpu_trace(const SpotTrace& single, int gpus_per_instance);

}  // namespace parcae
