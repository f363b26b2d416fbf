#include "runtime/parcae_policy.h"

#include <algorithm>
#include <cmath>

#include "runtime/parcae_ps.h"
#include "runtime/pricing.h"

namespace parcae {
namespace {

// On-demand c5.4xlarge instances hosting ParcaePS.
constexpr int kPsHosts = 2;

}  // namespace

ParcaePolicy::ParcaePolicy(ModelProfile model, ParcaePolicyOptions options,
                           const SpotTrace* oracle)
    : core_(std::move(model), std::move(options), oracle) {
  accountant_.set_metrics(&core_.metrics(),
                          std::string("policy.").append(name()));
}

std::string ParcaePolicy::name() const {
  switch (core_.options().mode) {
    case PredictionMode::kProactive:
      return "Parcae";
    case PredictionMode::kOracle:
      return "Parcae(Ideal)";
    case PredictionMode::kReactive:
      return "Parcae-Reactive";
    case PredictionMode::kStatic:
      return "Parcae-Static";
  }
  return "Parcae";
}

void ParcaePolicy::reset() {
  core_.reset();
  accountant_.reset();
}

double ParcaePolicy::support_cost_usd_per_hour() const {
  return Pricing{}.ps_host_usd_per_hour * kPsHosts;
}

IntervalDecision ParcaePolicy::on_interval(int interval_index,
                                           const AvailabilityEvent& event,
                                           double interval_s) {
  const double T = interval_s;
  const SchedulerDecision advice = core_.step(interval_index, event, T);

  // Large stalls spill into following intervals.
  accountant_.add_stall(advice.stall_s);
  const double stall = accountant_.charge(T);

  // Train for the remainder of the interval. ParcaePS gradient pushes
  // lengthen every iteration slightly.
  IntervalDecision decision;
  const ParallelConfig& config = advice.config;
  const ModelProfile& model = core_.model();
  double tput = 0.0;
  if (config.valid()) {
    const double iter = core_.throughput_model().iteration_time(config);
    if (std::isfinite(iter) && iter > 0.0) {
      const double iter_with_ps =
          iter + ps_sync_stall_s(model.parameters);
      tput = static_cast<double>(model.mini_batch) / iter_with_ps;
    }
  }
  IntervalAccountant::settle(decision, config, tput, stall, T);
  // A rollback loses only the in-flight mini-batch (ParcaePS holds an
  // up-to-date checkpoint); the sample manager re-leases it.
  if (advice.plan.kind == MigrationKind::kRollback && tput > 0.0)
    decision.samples_lost = static_cast<double>(model.mini_batch);

  if (advice.plan.kind != MigrationKind::kNone &&
      advice.plan.kind != MigrationKind::kSuspend) {
    core_.metrics().counter("scheduler.migrations_executed").inc();
    core_.metrics()
        .counter(std::string("scheduler.migrations_executed.") +
                 migration_kind_name(advice.plan.kind))
        .inc();
  }

  decision.note =
      advice.plan.kind == MigrationKind::kNone
          ? ""
          : transition_note(migration_kind_name(advice.plan.kind), config);
  return decision;
}

}  // namespace parcae
