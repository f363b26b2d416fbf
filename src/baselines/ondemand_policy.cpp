#include "baselines/ondemand_policy.h"

#include "runtime/interval_accountant.h"

namespace parcae {

SpotTrace flat_trace(int instances, double duration_s,
                     const std::string& name) {
  return SpotTrace(name, instances, instances, duration_s, {});
}

OnDemandPolicy::OnDemandPolicy(ModelProfile model)
    : model_(std::move(model)), throughput_(model_) {}

IntervalDecision OnDemandPolicy::on_interval(int interval_index,
                                             const AvailabilityEvent& event,
                                             double interval_s) {
  (void)interval_index;
  IntervalDecision decision;
  const ParallelConfig config = throughput_.best_config(event.available);
  IntervalAccountant::settle(decision, config, throughput_.throughput(config),
                             0.0, interval_s);
  return decision;
}

}  // namespace parcae
