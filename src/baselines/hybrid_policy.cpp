#include "baselines/hybrid_policy.h"

#include <algorithm>

#include "runtime/pricing.h"

namespace parcae {
namespace {

constexpr double kRegroupStallS = 8.0;  // adding/dropping spot pipelines

}  // namespace

// The on-demand core is one pipeline at the model's minimum feasible
// depth.
HybridSpotPolicy::HybridSpotPolicy(ModelProfile model)
    : model_(std::move(model)),
      throughput_(model_),
      core_depth_(std::max(1, throughput_.min_pipeline_depth())) {}

void HybridSpotPolicy::reset() {
  current_ = kIdleConfig;
  accountant_.reset();
}

double HybridSpotPolicy::support_cost_usd_per_hour() const {
  return core_depth_ * Pricing{}.ondemand_gpu_usd_per_hour;
}

IntervalDecision HybridSpotPolicy::on_interval(int interval_index,
                                               const AvailabilityEvent& event,
                                               double interval_s) {
  (void)interval_index;
  IntervalDecision decision;
  const double T = interval_s;
  // One on-demand pipeline is always there; spot instances contribute
  // whole extra pipelines of the same depth.
  const int max_pipelines =
      std::max(1, model_.mini_batch / model_.micro_batch);
  const int spot_pipelines =
      std::min(event.available / core_depth_, max_pipelines - 1);
  const ParallelConfig target{1 + spot_pipelines, core_depth_};

  if (current_.valid() && target.dp != current_.dp) {
    // Spot pipelines joined or left: process-group rebuild; the core
    // pipeline keeps the model state so nothing is ever lost.
    accountant_.add_stall(kRegroupStallS);
    decision.note = transition_note("regroup", target);
  }
  const double stall = accountant_.charge(T);

  IntervalAccountant::settle(decision, target, throughput_.throughput(target),
                             stall, T);
  current_ = target;
  return decision;
}

}  // namespace parcae
