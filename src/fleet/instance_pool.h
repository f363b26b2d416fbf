// Instance ownership as a *lease view* rather than the raw trace.
//
// Parcae's single-job pipeline reads availability straight off a
// SpotTrace; a shared preemptible pool hosting many jobs cannot work
// that way — each job sees only the instances the FleetArbiter leased
// to it. InstancePoolView is that boundary: "the instances this
// consumer may use, per interval". Executor backends (SchedulerCore's
// oracle mode, the ClusterSimulator, SpotTrainingDriver) consume a
// view; whether it is the whole pool (TracePoolView — the trace-backed
// single-job adapter, bit-identical to the historical direct-trace
// path) or an arbiter-granted slice (SeriesPoolView over the job's
// grant history) is invisible to them.
//
// Header-only on purpose: core and runtime consume the interface
// without linking the fleet library (which depends on runtime for the
// fleet simulator), keeping the library graph acyclic.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/spot_trace.h"

namespace parcae {

// Availability change observed at an interval boundary (the cloud-side
// inputs of Algorithm 1). Executor backends translate their own event
// streams (trace diffs, preemption notices, lease resizes) into this.
struct AvailabilityObservation {
  int available = 0;    // instances available this interval
  int preempted = 0;    // instances lost at this interval boundary
  int allocated = 0;    // instances gained at this interval boundary
};

// Read-only view of the instances leased to one consumer over time.
class InstancePoolView {
 public:
  virtual ~InstancePoolView() = default;

  virtual const std::string& name() const = 0;
  // Most instances this view can ever grant.
  virtual int capacity() const = 0;
  virtual double duration_s() const = 0;

  // Leased-instance count sampled at interval starts: N_i = leased at
  // i * interval_s, for i in [0, floor(duration / interval_s)) — the
  // same series semantics as SpotTrace::availability_series.
  virtual std::vector<int> availability_series(double interval_s) const = 0;

  // The event-level trace behind this view when it is a whole-pool
  // window (nullptr for arbiter-granted leases). Executors that replay
  // sub-interval event timing (TraceCloudProvider) use it to stay
  // bit-identical with the historical direct-trace path.
  virtual const SpotTrace* backing_trace() const { return nullptr; }
};

// Whole-pool view over a SpotTrace: the single-job adapter. Owns or
// borrows the trace; availability == the trace's availability.
class TracePoolView final : public InstancePoolView {
 public:
  explicit TracePoolView(SpotTrace trace)
      : owned_(std::move(trace)), trace_(&owned_) {}
  // Non-owning; `trace` must outlive the view.
  explicit TracePoolView(const SpotTrace* trace)
      : trace_(trace) {}

  const std::string& name() const override { return trace_->name(); }
  int capacity() const override { return trace_->capacity(); }
  double duration_s() const override { return trace_->duration_s(); }
  std::vector<int> availability_series(double interval_s) const override {
    return trace_->availability_series(interval_s);
  }
  const SpotTrace* backing_trace() const override { return trace_; }

 private:
  SpotTrace owned_;
  const SpotTrace* trace_;
};

// Lease view from an explicit per-interval grant series (what a fleet
// job receives: its own grant history, not the pool's).
class SeriesPoolView final : public InstancePoolView {
 public:
  SeriesPoolView(std::string name, std::vector<int> series, int capacity,
                 double interval_s = 60.0)
      : name_(std::move(name)),
        series_(std::move(series)),
        capacity_(capacity),
        interval_s_(interval_s) {}

  const std::string& name() const override { return name_; }
  int capacity() const override { return capacity_; }
  double duration_s() const override {
    return static_cast<double>(series_.size()) * interval_s_;
  }
  std::vector<int> availability_series(double interval_s) const override {
    if (interval_s == interval_s_ || series_.empty()) return series_;
    // Resample by time (views are rarely re-quantized; correctness
    // over speed).
    std::vector<int> out;
    const auto n = static_cast<std::size_t>(duration_s() / interval_s);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto src = static_cast<std::size_t>(
          static_cast<double>(i) * interval_s / interval_s_);
      if (src >= series_.size()) src = series_.size() - 1;
      out.push_back(series_[src]);
    }
    return out;
  }

  const std::vector<int>& series() const { return series_; }

 private:
  std::string name_;
  std::vector<int> series_;
  int capacity_;
  double interval_s_;
};

// Stable 64-bit FNV-1a hash (the FaultInjector per-point scheme: one
// shared constant namespace, independent streams per name).
inline std::uint64_t fleet_hash_name(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Forks job `job_id`'s seed from the fleet seed the way FaultInjector
// forks per-point streams: seed ^ FNV-1a("job<id>"). Adding or
// removing jobs never perturbs another job's stream, so fleet runs
// replay bit-for-bit regardless of job count or interleaving.
inline std::uint64_t fleet_job_seed(std::uint64_t fleet_seed, int job_id) {
  return fleet_seed ^ fleet_hash_name("job" + std::to_string(job_id));
}

}  // namespace parcae
