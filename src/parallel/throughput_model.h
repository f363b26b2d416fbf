// Analytical THROUGHPUT(D, P) model for hybrid data+pipeline parallel
// training (§2.1, §3).
//
// The model follows the standard 1F1B pipeline analysis the paper's
// cost model relies on:
//   - the global mini-batch B is split across D pipelines into
//     micro-batches of size b: m = ceil(B / (D*b)) per pipeline,
//   - per-microbatch per-stage compute time derives from FLOPs and a
//     calibrated sustained rate, plus an activation-recompute
//     surcharge,
//   - boundary activations cross stages at alpha-beta p2p cost,
//   - gradient synchronization is a ring all-reduce of the stage's
//     parameter shard across the D replicas, partially overlapped with
//     backward computation,
//   - configurations that violate the memory model have throughput 0
//     (§7.2: "for unfeasible cases ... THROUGHPUT is set to be zero").
#pragma once

#include <vector>

#include "model/memory_model.h"
#include "model/model_profile.h"
#include "net/network_model.h"
#include "parallel/parallel_config.h"

namespace parcae {

struct ThroughputModelOptions {
  MemorySpec memory = MemorySpec::parcae();
  // Extra compute per stage for redundancy-based systems (Bamboo runs
  // its successor's forward+backward in pipeline bubbles; the paper
  // finds the overhead cannot be fully hidden for large models).
  double redundant_compute_fraction = 0.0;
};

// Forward-only execution of one request batch through a P-stage
// serving replica (src/serve/): with stages pipelined, consecutive
// batches overlap, so the replica's sustainable rate is governed by the
// bottleneck-stage busy time (occupancy) while a single request
// experiences the full end-to-end latency.
struct ServeBatchTime {
  double occupancy_s = 0.0;  // bottleneck-stage busy time per batch
  double latency_s = 0.0;    // end-to-end execution time of one batch
};

class ThroughputModel {
 public:
  ThroughputModel(ModelProfile model, ThroughputModelOptions options = {});

  // Seconds per mini-batch iteration; +inf if infeasible.
  double iteration_time(ParallelConfig config) const;

  // Samples per second; 0 if infeasible.
  double throughput(ParallelConfig config) const;

  // Units (tokens / images) per second; 0 if infeasible.
  double unit_throughput(ParallelConfig config) const;

  // Memory- and batch-feasibility of (D, P).
  bool feasible(ParallelConfig config) const;

  // All feasible configurations with D*P <= instances — the Varuna-like
  // O(N log N) search space the liveput optimizer explores (§7.2).
  std::vector<ParallelConfig> enumerate_configs(int instances) const;

  // The throughput-optimal configuration for `instances` (what a
  // reactive, throughput-optimized system like Varuna morphs to).
  // Returns kIdleConfig if nothing is feasible.
  ParallelConfig best_config(int instances) const;

  const ModelProfile& model() const { return model_; }
  const MemoryModel& memory() const { return memory_; }

  // Smallest feasible pipeline depth under this system's memory spec.
  int min_pipeline_depth() const { return min_depth_; }

  // Inference timing for a batch of `batch` requests on one P-stage
  // serving replica: forward pass only (no backward, no recompute, no
  // gradient all-reduce), scaled by `generation_factor` for workloads
  // that run multiple decode steps per request. Zeroes if batch or
  // depth is non-positive; feasibility (depth vs. partition units and
  // memory) is the caller's concern.
  ServeBatchTime serve_batch_time(int pipeline_depth, int batch,
                                  double generation_factor = 1.0) const;

 private:
  ModelProfile model_;
  ThroughputModelOptions options_;
  MemoryModel memory_;
  int min_depth_;
};

// Defined here so the serving estimator's batch interpolation
// (serve/queue_model.cpp) inlines it. Called out of line, GCC 12 -O3 on
// x86-64 packs the two returned doubles into one vector through the
// stack (two 8-byte stores read back by one 16-byte load, which cannot
// be store-forwarded) to add the constant batch overhead; that made
// each serving decision ~20% slower on a 4-vCPU host.
inline ServeBatchTime ThroughputModel::serve_batch_time(
    int pipeline_depth, int batch, double generation_factor) const {
  ServeBatchTime out;
  if (pipeline_depth < 1 || batch < 1 || generation_factor <= 0.0) return out;
  const double total_compute = model_.fwd_flops_per_sample *
                               generation_factor * batch /
                               model_.effective_flops;
  double t_p2p = 0.0;
  if (pipeline_depth > 1)
    t_p2p = NetworkModel::p2p_time(model_.boundary_activation_bytes * batch);
  out.occupancy_s = total_compute / pipeline_depth + t_p2p;
  out.latency_s = total_compute + (pipeline_depth - 1.0) * t_p2p;
  return out;
}

}  // namespace parcae
