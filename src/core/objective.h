// What the decision engine maximizes.
//
// Parcae's decision loop is one engine for every workload: the
// look-ahead interval DP (IntervalDp, §7) and the Algorithm-1 step
// around it (SchedulerCore). An objective supplies only what differs
// between workloads:
//   - what a configuration earns per second of uptime at an interval's
//     load (training: THROUGHPUT samples/s; serving: requests served
//     within the SLO at the offered request rate),
//   - an optional stall for replacing a running configuration
//     (serving: draining the outgoing replicas' in-flight requests),
//   - the load it measures and forecasts (serving: the request rate;
//     training has none),
//   - the reactive target, and the per-workload constants in
//     ObjectiveTraits.
//
// LiveputObjective is the training objective; the serving one
// (serve::GoodputObjective) lives in src/serve/serving_scheduler.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/parallel_config.h"
#include "parallel/throughput_model.h"

namespace parcae {

struct ObjectiveTraits {
  // Metric families: the scheduler's counters and step span
  // ("<scheduler_family>.intervals") and the DP's counters
  // ("<dp_family>.runs").
  const char* scheduler_family = "scheduler";
  const char* dp_family = "liveput_dp";
  // Gauge, under scheduler_family, carrying the plan's expected value.
  const char* plan_value = "liveput_expected_samples";
  // Salt of the damage-mapping RNG stream (seed ^ salt).
  std::uint64_t rng_salt = 0xabcdef12345ull;
  // Widest data-parallel degree the §8 adaptation may build.
  int max_pipelines = 1;
  // Release instances beyond the planned width instead of growing into
  // them (goodput saturates at the offered load; throughput does not).
  bool cap_width = false;
};

class SchedulingObjective {
 public:
  explicit SchedulingObjective(ObjectiveTraits traits) : traits_(traits) {}
  virtual ~SchedulingObjective() = default;
  // Engines keep pointers to their objective.
  SchedulingObjective(const SchedulingObjective&) = delete;
  SchedulingObjective& operator=(const SchedulingObjective&) = delete;

  const ObjectiveTraits& traits() const { return traits_; }

  // Feasible configurations for `n` instances (the DP appends idle).
  virtual std::vector<ParallelConfig> candidates(int n) const = 0;
  // What `config` earns per second of uptime at `load`; 0 when idle or
  // infeasible.
  virtual double rate(ParallelConfig config, double load) const = 0;
  // Stall charged on top of the migration when the running `from` is
  // replaced by a different running configuration at `load`.
  virtual double switch_cost(ParallelConfig /*from*/, double /*load*/) const {
    return 0.0;
  }
  // The best configuration for `n` instances at `load`, ignoring the
  // future: the reactive target and the bootstrap plan.
  virtual ParallelConfig best_config(int n, double load) const = 0;
  // Load measured at `interval`, and the forecast for the `horizon`
  // intervals after it (empty: the objective has no load).
  virtual double load(int /*interval*/) const { return 0.0; }
  virtual std::vector<double> forecast_load(int /*interval*/,
                                            int /*horizon*/) const {
    return {};
  }

 private:
  ObjectiveTraits traits_;
};

// Training (§7, Equations 3-6): committed samples, THROUGHPUT(c) per
// second of uptime, with no load and no switch stall.
class LiveputObjective : public SchedulingObjective {
 public:
  // `throughput` must outlive the objective.
  explicit LiveputObjective(const ThroughputModel* throughput)
      : SchedulingObjective({.max_pipelines = std::max(
                                 1, throughput->model().mini_batch /
                                        throughput->model().micro_batch)}),
        throughput_(throughput) {}

  std::vector<ParallelConfig> candidates(int n) const override {
    return throughput_->enumerate_configs(n);
  }
  double rate(ParallelConfig config, double /*load*/) const override {
    return throughput_->throughput(config);
  }
  ParallelConfig best_config(int n, double /*load*/) const override {
    return throughput_->best_config(n);
  }

 private:
  const ThroughputModel* throughput_;
};

}  // namespace parcae
