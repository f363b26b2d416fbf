#include "serve/queue_model.h"

#include <algorithm>
#include <cmath>

namespace parcae::serve {
namespace {

// Fixed per-batch overhead (tokenization, scheduling, kernel
// launches), seconds.
constexpr double kBatchOverheadS = 0.010;
// Decode steps per request relative to one forward pass (generative
// models run the decoder repeatedly; 1.0 = single-shot inference).
constexpr double kGenerationFactor = 1.0;
// Coefficient of variation of the service process in the P-K wait
// term (cv = 1 recovers M/M/1-like waits).
constexpr double kServiceCv = 1.0;
// Utilization above this is treated as saturated: the queue sits at
// its cap and excess arrivals drop.
constexpr double kRhoMax = 0.98;

}  // namespace

ReplicaQueueModel::ReplicaQueueModel(const ThroughputModel* throughput,
                                     ServingModelOptions options)
    : throughput_(throughput), options_(options) {
  if (options_.max_batch < 1) options_.max_batch = 1;
  if (options_.slo_ms < 0.0) options_.slo_ms = 0.0;
  if (options_.admission_queue_cap < 1) options_.admission_queue_cap = 1;
}

bool ReplicaQueueModel::serving_feasible(ParallelConfig config) const {
  if (!config.valid()) return false;
  const auto& model = throughput_->model();
  if (config.pp > model.partition_units) return false;
  const int min_depth = throughput_->min_pipeline_depth();
  if (min_depth < 0 || config.pp < min_depth) return false;
  return true;
}

ServeBatchTime ReplicaQueueModel::batch_time(int pipeline_depth,
                                             double batch) const {
  // occupancy/latency are affine in the batch size (compute and p2p
  // bytes both scale linearly), so interpolate between batch 1 and
  // max_batch instead of forcing an integer batch on the estimator.
  const ServeBatchTime one =
      throughput_->serve_batch_time(pipeline_depth, 1, kGenerationFactor);
  ServeBatchTime out = one;
  if (options_.max_batch > 1) {
    const ServeBatchTime full = throughput_->serve_batch_time(
        pipeline_depth, options_.max_batch, kGenerationFactor);
    const double f = std::clamp(
        (batch - 1.0) / (options_.max_batch - 1.0), 0.0, 1.0);
    out.occupancy_s = one.occupancy_s + f * (full.occupancy_s - one.occupancy_s);
    out.latency_s = one.latency_s + f * (full.latency_s - one.latency_s);
  }
  out.occupancy_s += kBatchOverheadS;
  out.latency_s += kBatchOverheadS;
  return out;
}

double ReplicaQueueModel::replica_capacity_rps(int pipeline_depth) const {
  const ServeBatchTime full = batch_time(pipeline_depth, options_.max_batch);
  if (full.occupancy_s <= 0.0) return 0.0;
  return options_.max_batch / full.occupancy_s;
}

ServingEstimate ReplicaQueueModel::estimate(ParallelConfig config,
                                            double offered_rps) const {
  ServingEstimate est;
  if (!serving_feasible(config)) return est;
  est.feasible = true;

  const double mu_cap = replica_capacity_rps(config.pp);
  est.capacity_rps = mu_cap * config.dp;
  if (mu_cap <= 0.0) return est;

  const double lambda_r = std::max(0.0, offered_rps) / config.dp;

  // Continuous batching fills batches as load approaches capacity.
  const double fill = std::min(1.0, lambda_r / mu_cap);
  est.batch_estimate = 1.0 + (options_.max_batch - 1.0) * fill;
  const ServeBatchTime bt = batch_time(config.pp, est.batch_estimate);
  est.exec_latency_s = bt.latency_s;

  // Per-request bottleneck service time at this batch size.
  const double s_tp = bt.occupancy_s / est.batch_estimate;
  est.utilization = lambda_r * s_tp;

  const double cv2 = kServiceCv * kServiceCv;
  if (est.utilization >= kRhoMax) {
    // Saturated: the bounded queue pins the wait at cap * service time
    // and everything beyond capacity drops at admission.
    est.utilization = std::min(est.utilization, 1.5);
    est.wait_mean_s = options_.admission_queue_cap * s_tp;
    est.served_rps = std::min(offered_rps, est.capacity_rps);
  } else {
    // M/G/1 Pollaczek–Khinchine mean wait.
    est.wait_mean_s = est.utilization * s_tp * (1.0 + cv2) /
                      (2.0 * (1.0 - est.utilization));
    est.served_rps = std::max(0.0, offered_rps);
  }
  est.latency_mean_s = est.wait_mean_s + est.exec_latency_s;

  // Shifted-exponential latency tail: execution is (near-)
  // deterministic at a given batch, the queueing delay is
  // approximately exponential with mean wait_mean_s.
  const double slo_s = options_.slo_ms / 1000.0;
  if (slo_s <= bt.latency_s) {
    est.slo_hit_prob = 0.0;
  } else if (est.wait_mean_s <= 1e-12) {
    est.slo_hit_prob = 1.0;
  } else {
    est.slo_hit_prob = 1.0 - std::exp(-(slo_s - bt.latency_s) /
                                      est.wait_mean_s);
  }
  est.goodput_rps = est.served_rps * est.slo_hit_prob;
  return est;
}

double ReplicaQueueModel::goodput(ParallelConfig config,
                                  double offered_rps) const {
  return estimate(config, offered_rps).goodput_rps;
}

double ReplicaQueueModel::drain_cost_s(ParallelConfig config,
                                       double offered_rps) const {
  const ServingEstimate est = estimate(config, offered_rps);
  if (!est.feasible || est.capacity_rps <= 0.0) return 0.0;
  // Little's law: queued work per replica, then the time the slowest
  // replica needs to finish its in-flight batch and flush the queue.
  const double lambda_r = std::max(0.0, offered_rps) / config.dp;
  const double lq = lambda_r * est.wait_mean_s;
  const double s_tp = est.batch_estimate > 0.0
                          ? est.exec_latency_s / est.batch_estimate
                          : 0.0;
  return std::min(kDrainCapS, est.exec_latency_s + lq * s_tp);
}

std::vector<ParallelConfig> ReplicaQueueModel::enumerate_serving_configs(
    int instances) const {
  std::vector<ParallelConfig> out;
  if (instances <= 0) return out;
  const auto& model = throughput_->model();
  const int min_depth = std::max(1, throughput_->min_pipeline_depth());
  const int max_p = std::min(instances, model.partition_units);
  for (int p = min_depth; p <= max_p; ++p) {
    for (int d = 1; d * p <= instances; ++d) {
      const ParallelConfig c{d, p};
      if (serving_feasible(c)) out.push_back(c);
    }
  }
  return out;
}

ParallelConfig ReplicaQueueModel::best_serving_config(
    int instances, double offered_rps) const {
  ParallelConfig best = kIdleConfig;
  double best_goodput = 0.0;
  for (const auto& c : enumerate_serving_configs(instances)) {
    const double g = goodput(c, offered_rps);
    const bool better =
        g > best_goodput + 1e-9 ||
        (g > best_goodput - 1e-9 && best.valid() &&
         (c.instances() < best.instances() ||
          (c.instances() == best.instances() && c.pp < best.pp)));
    if (better && g > 0.0) {
      best_goodput = std::max(best_goodput, g);
      best = c;
    }
  }
  return best;
}

}  // namespace parcae::serve
