#include "serve/serving_scheduler.h"

#include <algorithm>

namespace parcae::serve {
namespace {

SchedulerCoreOptions core_options(const ServingSchedulerOptions& o,
                                  const GoodputObjective& objective,
                                  const ArrivalGenerator* arrivals) {
  SchedulerCoreOptions c = o;
  if (o.mode == ServingMode::kStatic && !c.static_config.valid())
    c.static_config = objective.best_config(
        o.max_instances, arrivals != nullptr ? arrivals->expected_rps(0) : 0.0);
  return c;
}

}  // namespace

const char* serving_mode_name(ServingMode mode) {
  switch (mode) {
    case ServingMode::kProactive:
      return "proactive";
    case ServingMode::kOracle:
      return "oracle";
    case ServingMode::kReactive:
      return "reactive";
    case ServingMode::kStatic:
      return "static";
  }
  return "?";
}

GoodputObjective::GoodputObjective(const ModelProfile& model,
                                   ServingModelOptions serving,
                                   const ArrivalGenerator* arrivals,
                                   int max_instances)
    : SchedulingObjective({.scheduler_family = "serve.scheduler",
                           .dp_family = "serve_dp",
                           .plan_value = "expected_good_requests",
                           .rng_salt = 0x5e57eull,
                           .max_pipelines = std::max(1, max_instances),
                           .cap_width = true}),
      throughput_(model),
      queue_(&throughput_, serving),
      arrivals_(arrivals) {}

double GoodputObjective::load(int interval) const {
  if (arrivals_ == nullptr) return 0.0;
  return arrivals_->prepared_intervals() > interval
             ? arrivals_->realized_rps(interval)
             : arrivals_->expected_rps(interval);
}

std::vector<double> GoodputObjective::forecast_load(int interval,
                                                    int horizon) const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(horizon));
  double deviation = 0.0;
  double decay = 0.0;
  if (arrivals_ != nullptr && arrivals_->options().kind == ArrivalKind::kMmpp &&
      arrivals_->prepared_intervals() > interval) {
    const double expected = arrivals_->expected_rps(interval);
    if (expected > 0.0)
      deviation = arrivals_->realized_rps(interval) / expected - 1.0;
    decay = ArrivalGenerator::burst_decay();
  }
  for (int h = 1; h <= horizon; ++h) {
    deviation *= decay;
    out.push_back(arrivals_ != nullptr
                      ? arrivals_->expected_rps(interval + h) *
                            (1.0 + deviation)
                      : 0.0);
  }
  return out;
}

ServingScheduler::ServingScheduler(ModelProfile model,
                                   ServingSchedulerOptions options,
                                   const ArrivalGenerator* arrivals,
                                   const SpotTrace* oracle)
    : options_(std::move(options)),
      objective_(model, options_.serving, arrivals,
                 options_.max_instances),
      core_(std::move(model), core_options(options_, objective_, arrivals),
            options_.mode == ServingMode::kOracle ? oracle : nullptr,
            &objective_) {}

}  // namespace parcae::serve
