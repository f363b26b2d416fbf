#include "parallel/throughput_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace parcae {
namespace {

// Fraction of the gradient all-reduce hidden under backward compute.
constexpr double kAllreduceOverlap = 0.5;

}  // namespace

ThroughputModel::ThroughputModel(ModelProfile model,
                                 ThroughputModelOptions options)
    : model_(std::move(model)),
      options_(options),
      memory_(model_, options.memory),
      min_depth_(memory_.min_feasible_depth()) {}

bool ThroughputModel::feasible(ParallelConfig config) const {
  if (!config.valid()) return false;
  if (config.pp > model_.partition_units) return false;
  if (min_depth_ < 0 || config.pp < min_depth_) return false;
  // Each pipeline must process at least one micro-batch per iteration.
  if (config.dp * model_.micro_batch > model_.mini_batch) return false;
  return true;
}

double ThroughputModel::iteration_time(ParallelConfig config) const {
  if (!feasible(config)) return std::numeric_limits<double>::infinity();

  const double micro = model_.micro_batch;
  const double m = std::ceil(static_cast<double>(model_.mini_batch) /
                             (config.dp * micro));
  // Per-stage, per-microbatch compute (fwd+bwd [+recompute fwd]).
  double t_stage = model_.train_flops_per_sample() * micro /
                   (static_cast<double>(config.pp) * model_.effective_flops);
  t_stage *= 1.0 + options_.redundant_compute_fraction;

  // Boundary activations: forward send + backward gradient return.
  double t_p2p = 0.0;
  if (config.pp > 1)
    t_p2p = 2.0 * NetworkModel::p2p_time(model_.boundary_activation_bytes *
                                         micro);

  const double pipeline_time =
      (m + static_cast<double>(config.pp) - 1.0) * (t_stage + t_p2p);

  // Gradient all-reduce of this stage's fp16 gradient shard across the
  // D replicas, partially overlapped with backward.
  const double shard_bytes = model_.weight_bytes() / config.pp;
  const double t_allreduce =
      NetworkModel::ring_allreduce_time(shard_bytes, config.dp) *
      (1.0 - kAllreduceOverlap);

  return pipeline_time + t_allreduce;
}

double ThroughputModel::throughput(ParallelConfig config) const {
  const double t = iteration_time(config);
  if (!std::isfinite(t) || t <= 0.0) return 0.0;
  return static_cast<double>(model_.mini_batch) / t;
}

double ThroughputModel::unit_throughput(ParallelConfig config) const {
  return throughput(config) * model_.units_per_sample();
}

std::vector<ParallelConfig> ThroughputModel::enumerate_configs(
    int instances) const {
  std::vector<ParallelConfig> out;
  if (instances <= 0 || min_depth_ < 0) return out;
  const int max_p = std::min(instances, model_.partition_units);
  for (int p = min_depth_; p <= max_p; ++p) {
    const int max_d = std::min(instances / p,
                               model_.mini_batch / model_.micro_batch);
    for (int d = 1; d <= max_d; ++d) {
      const ParallelConfig c{d, p};
      if (feasible(c)) out.push_back(c);
    }
  }
  return out;
}

ParallelConfig ThroughputModel::best_config(int instances) const {
  ParallelConfig best = kIdleConfig;
  double best_tp = 0.0;
  for (const auto& c : enumerate_configs(instances)) {
    const double tp = throughput(c);
    if (tp > best_tp) {
      best_tp = tp;
      best = c;
    }
  }
  return best;
}

}  // namespace parcae
