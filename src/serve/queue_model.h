// Per-replica batching/queueing model for spot serving (SpotServe
// direction; docs/serving.md).
//
// A serving configuration {D, P} runs D identical replicas, each a
// P-stage forward-only pipeline over the same ThroughputModel the
// training optimizer uses. Requests are load-balanced round-robin
// across replicas and admitted into a bounded per-replica queue;
// the replica executes continuous batches of up to max_batch requests.
//
// Two views of the same system:
//   - the closed-form M/G/1 estimator here (Pollaczek–Khinchine mean
//     wait + a shifted-exponential tail for the SLO-hit probability),
//     cheap enough to sit inside the goodput DP's inner loop, and
//   - the event-level ServingSimulator (serving_sim.h), which plays
//     every request through the same batch timings.
// tests/serve_test.cpp pins their agreement at moderate load.
#pragma once

#include <vector>

#include "parallel/parallel_config.h"
#include "parallel/throughput_model.h"

namespace parcae::serve {

struct ServingModelOptions {
  // Latency SLO: a request counts toward goodput iff its end-to-end
  // latency (queueing + execution) is within this bound.
  double slo_ms = 4000.0;
  // Continuous-batching window per replica.
  int max_batch = 8;
  // Bounded admission queue, in requests per replica; arrivals beyond
  // it are dropped (and never count toward goodput).
  int admission_queue_cap = 64;
};

// Cap on the in-flight drain charge at reconfiguration, seconds.
inline constexpr double kDrainCapS = 30.0;

// Closed-form steady-state estimate for one {D, P} at an offered rate.
struct ServingEstimate {
  bool feasible = false;
  double capacity_rps = 0.0;      // D * per-replica max service rate
  double utilization = 0.0;       // rho at the per-replica queue
  double batch_estimate = 1.0;    // effective continuous-batch size
  double wait_mean_s = 0.0;       // mean queueing delay (P-K)
  double exec_latency_s = 0.0;    // batch execution latency incl. overhead
  double latency_mean_s = 0.0;    // wait + exec
  double slo_hit_prob = 0.0;      // P(latency <= SLO)
  double served_rps = 0.0;        // admitted & completed rate
  double goodput_rps = 0.0;       // served within the SLO
};

class ReplicaQueueModel {
 public:
  ReplicaQueueModel(const ThroughputModel* throughput,
                    ServingModelOptions options);

  const ServingModelOptions& options() const { return options_; }
  const ThroughputModel& throughput() const { return *throughput_; }

  // A serving replica needs pp within the partitioner's range and deep
  // enough for the training memory model (conservative: inference
  // holds no optimizer state, but we keep one feasibility rule for
  // both workloads).
  bool serving_feasible(ParallelConfig config) const;

  // Steady-state estimate of {D, P} at `offered_rps` offered load.
  ServingEstimate estimate(ParallelConfig config, double offered_rps) const;

  // Shorthand: goodput_rps of estimate(), 0 when infeasible.
  double goodput(ParallelConfig config, double offered_rps) const;

  // Expected time to drain in-flight and queued requests before a
  // reconfiguration can retire the old replicas (charged as migration
  // cost by the goodput optimizer).
  double drain_cost_s(ParallelConfig config, double offered_rps) const;

  // All serving-feasible {D, P} with D*P <= instances.
  std::vector<ParallelConfig> enumerate_serving_configs(int instances) const;

  // Goodput-optimal configuration for `instances` at `offered_rps` —
  // what a reactive (availability-chasing) serving system morphs to.
  // Ties prefer the smaller footprint, then the shallower pipeline.
  ParallelConfig best_serving_config(int instances, double offered_rps) const;

  // Per-replica service rate at full batch (requests/s); 0 infeasible.
  double replica_capacity_rps(int pipeline_depth) const;

  // Event-level timing for an integer batch, overhead included — the
  // ServingSimulator's clock (same numbers the estimator interpolates).
  ServeBatchTime batch_execution(int pipeline_depth, int batch) const {
    return batch_time(pipeline_depth, static_cast<double>(batch));
  }

 private:
  // Affine-in-batch occupancy/latency at a fractional batch size.
  ServeBatchTime batch_time(int pipeline_depth, double batch) const;

  const ThroughputModel* throughput_;
  ServingModelOptions options_;
};

}  // namespace parcae::serve
