#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/table.h"
#include "core/slo.h"
#include "model/model_profile.h"
#include "obs/exporter.h"
#include "parallel/throughput_model.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"

namespace parcae::fleet {

namespace {

// Throughput of the job's best configuration at pool capacity — the
// reference that makes liveput comparable across models (the same
// normalization value_table_from_model applies).
double reference_throughput(const ModelProfile& profile, int capacity) {
  const ThroughputModel model(profile, {});
  return model.throughput(model.best_config(capacity));
}

}  // namespace

std::vector<FleetJobSpec> standard_fleet(int num_jobs) {
  static const char* kModels[] = {"GPT-2", "BERT-Large", "ResNet-152",
                                  "VGG-19"};
  static const double kWeights[] = {1.0, 2.0, 1.0, 0.5};
  std::vector<FleetJobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(num_jobs));
  for (int j = 0; j < num_jobs; ++j) {
    FleetJobSpec spec;
    spec.job_id = j;
    spec.model = kModels[j % 4];
    spec.weight = kWeights[j % 4];
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

FleetSimulator::FleetSimulator(std::vector<FleetJobSpec> jobs,
                               FleetSimOptions options)
    : jobs_(std::move(jobs)), options_(options) {}

std::vector<int> FleetSimulator::static_slices(int capacity) const {
  // Largest-remainder apportionment of the pool by weight.
  double total_weight = 0.0;
  for (const FleetJobSpec& job : jobs_) total_weight += job.weight;
  std::vector<int> slice(jobs_.size(), 0);
  if (total_weight <= 0.0 || jobs_.empty()) return slice;
  std::vector<double> remainder(jobs_.size(), 0.0);
  int assigned = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const double quota =
        static_cast<double>(capacity) * jobs_[j].weight / total_weight;
    slice[j] = static_cast<int>(quota);
    remainder[j] = quota - static_cast<double>(slice[j]);
    assigned += slice[j];
  }
  std::vector<std::size_t> order(jobs_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&remainder](std::size_t a, std::size_t b) {
                     return remainder[a] > remainder[b];
                   });
  for (std::size_t r = 0; assigned < capacity && r < order.size();
       ++r, ++assigned)
    ++slice[order[r]];
  return slice;
}

FleetSimResult FleetSimulator::run(const SpotTrace& pool_trace) {
  std::vector<ArbiterJobSpec> specs;
  specs.reserve(jobs_.size());
  for (const FleetJobSpec& job : jobs_) {
    ArbiterJobSpec spec;
    spec.job_id = job.job_id;
    spec.weight = job.weight;
    spec.values = value_table_from_model(
        ThroughputModel(model_by_name(job.model), {}), options_.capacity);
    specs.push_back(std::move(spec));
  }
  FleetArbiterOptions arbiter_options;
  arbiter_options.capacity = options_.capacity;
  arbiter_options.seed = options_.fleet_seed;
  arbiter_options.metrics = options_.metrics;
  arbiter_options.swap_margin = options_.swap_margin;
  FleetArbiter arbiter(std::move(specs), arbiter_options);

  const std::vector<int> pool =
      pool_trace.availability_series(options_.interval_s);
  std::vector<std::vector<int>> grant_series(
      jobs_.size(), std::vector<int>(pool.size(), 0));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::vector<int>& grants =
        arbiter.rebalance(static_cast<int>(i), pool[i]);
    for (std::size_t j = 0; j < jobs_.size(); ++j)
      grant_series[j][i] = grants[j];
  }
  return integrate(pool_trace, "arbiter", grant_series, arbiter);
}

FleetSimResult FleetSimulator::run_static(const SpotTrace& pool_trace) {
  // The baseline still needs value tables — only for the fairness
  // yardstick (fair_shares), never for allocation.
  std::vector<ArbiterJobSpec> specs;
  specs.reserve(jobs_.size());
  for (const FleetJobSpec& job : jobs_) {
    ArbiterJobSpec spec;
    spec.job_id = job.job_id;
    spec.weight = job.weight;
    spec.values = value_table_from_model(
        ThroughputModel(model_by_name(job.model), {}), options_.capacity);
    specs.push_back(std::move(spec));
  }
  FleetArbiterOptions arbiter_options;
  arbiter_options.capacity = options_.capacity;
  arbiter_options.seed = options_.fleet_seed;
  const FleetArbiter yardstick(std::move(specs), arbiter_options);

  const std::vector<int> slice = static_slices(options_.capacity);
  const std::vector<int> pool =
      pool_trace.availability_series(options_.interval_s);
  std::vector<std::vector<int>> grant_series(
      jobs_.size(), std::vector<int>(pool.size(), 0));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Preemptions hit every fixed slice proportionally (instances are
    // assigned to partitions up front, and the cloud does not know
    // about partitions): job j keeps round(avail * slice_j / capacity),
    // largest remainders first, capped at its slice.
    const int avail = std::clamp(pool[i], 0, options_.capacity);
    std::vector<double> quota(jobs_.size(), 0.0);
    int assigned = 0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      quota[j] = static_cast<double>(avail) * slice[j] /
                 std::max(1, options_.capacity);
      grant_series[j][i] =
          std::min(slice[j], static_cast<int>(quota[j]));
      quota[j] -= static_cast<double>(grant_series[j][i]);
      assigned += grant_series[j][i];
    }
    std::vector<std::size_t> order(jobs_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&quota](std::size_t a, std::size_t b) {
                       return quota[a] > quota[b];
                     });
    for (std::size_t r = 0; assigned < avail && r < order.size(); ++r) {
      const std::size_t j = order[r];
      if (grant_series[j][i] >= slice[j]) continue;
      ++grant_series[j][i];
      ++assigned;
    }
  }
  return integrate(pool_trace, "static", grant_series, yardstick);
}

FleetSimResult FleetSimulator::integrate(
    const SpotTrace& pool_trace, const std::string& regime,
    const std::vector<std::vector<int>>& grant_series,
    const FleetArbiter& arbiter) {
  FleetSimResult result;
  result.trace = pool_trace.name();
  result.regime = regime;
  result.scheduler_mode =
      options_.event_driven
          ? "event (debounce_ms=" + format_double(options_.debounce_ms, 0) +
                ")"
          : "tick";
  result.jobs = static_cast<int>(jobs_.size());
  const std::vector<int> pool =
      pool_trace.availability_series(options_.interval_s);
  result.intervals = static_cast<int>(pool.size());

  // Fairness: misallocated pool fraction against the weighted
  // water-fill target, averaged over intervals.
  double deviation_sum = 0.0;
  int deviation_intervals = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const int avail = std::clamp(pool[i], 0, options_.capacity);
    if (avail <= 0) continue;
    const std::vector<int> fair = arbiter.fair_shares(avail);
    double misallocated = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j)
      misallocated += std::abs(grant_series[j][i] - fair[j]);
    deviation_sum += misallocated / (2.0 * static_cast<double>(avail));
    ++deviation_intervals;
  }
  result.weighted_share_deviation =
      deviation_intervals > 0 ? deviation_sum / deviation_intervals : 0.0;

  // Lease churn from the grant series (both regimes, same ruler).
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    for (std::size_t i = 0; i < grant_series[j].size(); ++i) {
      const int prev = i == 0 ? 0 : grant_series[j][i - 1];
      const int delta = grant_series[j][i] - prev;
      if (delta > 0)
        result.lease_grants += delta;
      else
        result.lease_revocations -= delta;
    }
  }

  // One full Parcae stack per job over its lease, recording through a
  // "job<j>." view of the shared registry.
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const FleetJobSpec& job = jobs_[j];
    const std::string prefix = "job" + std::to_string(job.job_id) + ".";
    const ModelProfile profile = model_by_name(job.model);
    std::optional<obs::MetricsRegistry> job_metrics;
    if (options_.metrics != nullptr)
      job_metrics.emplace(*options_.metrics, prefix);
    obs::MetricsRegistry* metrics = job_metrics ? &*job_metrics : nullptr;

    const SpotTrace lease = SpotTrace::from_minute_series(
        "lease:" + prefix + job.model, grant_series[j], options_.capacity,
        options_.interval_s);

    ParcaePolicyOptions policy_options;
    policy_options.mode = PredictionMode::kProactive;
    policy_options.lookahead = options_.lookahead;
    policy_options.history = options_.history;
    policy_options.mc_trials = options_.mc_trials;
    policy_options.seed = fleet_job_seed(options_.fleet_seed, job.job_id);
    policy_options.interval_s = options_.interval_s;
    policy_options.max_instances = options_.capacity;
    policy_options.metrics = metrics;
    policy_options.event_driven = options_.event_driven;
    policy_options.debounce_ms = options_.debounce_ms;
    ParcaePolicy policy(profile, policy_options, &lease);

    SimulationOptions sim_options;
    sim_options.interval_s = options_.interval_s;
    sim_options.record_timeline = false;
    sim_options.metrics = metrics;
    const SimulationResult sim = simulate(policy, lease, sim_options);

    FleetJobResult job_result;
    job_result.job_id = job.job_id;
    job_result.model = job.model;
    job_result.weight = job.weight;
    job_result.grants = grant_series[j];
    job_result.committed_samples = sim.committed_samples;
    const double reference =
        reference_throughput(profile, options_.capacity);
    if (reference > 0.0 && sim.duration_s > 0.0)
      job_result.normalized_liveput =
          sim.committed_samples / sim.duration_s / reference;
    double grant_sum = 0.0;
    for (const int g : grant_series[j]) grant_sum += g;
    job_result.mean_grant =
        grant_series[j].empty()
            ? 0.0
            : grant_sum / static_cast<double>(grant_series[j].size());
    result.weighted_liveput += job.weight * job_result.normalized_liveput;
    result.per_job.push_back(std::move(job_result));

    if (metrics != nullptr)
      metrics->gauge("fleet.normalized_liveput")
          .set(result.per_job.back().normalized_liveput);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->gauge("fleet.weighted_liveput." + regime)
        .set(result.weighted_liveput);
    options_.metrics->gauge("fleet.share_deviation." + regime)
        .set(result.weighted_share_deviation);
    result.metrics = options_.metrics->snapshot();
    // Fleet-level SLOs run against the rollup (the per-job "job<j>."
    // names folded into "fleet.*" sums/maxima), once per regime: the
    // jobs execute sequentially, so the rollup only exists here.
    if (options_.slo != nullptr) {
      obs::FleetAggregator aggregator;
      aggregator.fold(result.metrics);
      const obs::MetricsSnapshot rollup = aggregator.rollup();
      options_.slo->set_snapshot(&rollup);
      options_.slo->evaluate(result.intervals,
                             result.intervals * options_.interval_s);
      options_.slo->set_snapshot(nullptr);
    }
  }
  return result;
}

std::string FleetSimResult::to_string() const {
  std::string out;
  out += "fleet " + regime + " on " + trace + ": " + std::to_string(jobs) +
         " jobs, " + std::to_string(intervals) + " intervals\n";
  out += "  weighted liveput  " + format_double(weighted_liveput, 4) + "\n";
  out += "  share deviation   " +
         format_double(weighted_share_deviation, 4) + "\n";
  out += "  lease churn       +" + std::to_string(lease_grants) + " / -" +
         std::to_string(lease_revocations) + "\n";
  out += "  scheduler mode    " + scheduler_mode + "\n";
  for (const FleetJobResult& job : per_job) {
    out += "  job" + std::to_string(job.job_id) + " " + job.model +
           " w=" + format_double(job.weight, 1) +
           " mean_grant=" + format_double(job.mean_grant, 2) +
           " liveput=" + format_double(job.normalized_liveput, 4) + "\n";
  }
  return out;
}

}  // namespace parcae::fleet
