#include "baselines/elastic_dp_policy.h"

#include <algorithm>

namespace parcae {
namespace {

constexpr double kRegroupStallS = 9.0;  // rendezvous + process-group rebuild

}  // namespace

ElasticDpPolicy::ElasticDpPolicy(ModelProfile model)
    : model_(std::move(model)), throughput_(model_) {}

void ElasticDpPolicy::reset() {
  current_ = kIdleConfig;
  accountant_.reset();
}

IntervalDecision ElasticDpPolicy::on_interval(int interval_index,
                                              const AvailabilityEvent& event,
                                              double interval_s) {
  (void)interval_index;
  IntervalDecision decision;
  const double T = interval_s;
  if (!model_fits()) {
    decision.note = "model does not fit a single GPU";
    return decision;
  }
  const int max_pipelines =
      std::max(1, model_.mini_batch / model_.micro_batch);
  const int d = std::min(event.available, max_pipelines);
  const ParallelConfig target = d >= 1 ? ParallelConfig{d, 1} : kIdleConfig;

  double lost = 0.0;
  const double tput = target.valid() ? throughput_.throughput(target) : 0.0;
  if (target != current_ && target.valid()) {
    accountant_.add_stall(kRegroupStallS);
    if (event.preempted > 0 && current_.valid()) {
      // In-flight iteration is abandoned on a shrink.
      lost = static_cast<double>(model_.mini_batch);
    }
  }
  const double stall = accountant_.charge(T);

  IntervalAccountant::settle(decision, target, tput, stall, T);
  decision.samples_lost = lost;
  current_ = target;
  return decision;
}

}  // namespace parcae
