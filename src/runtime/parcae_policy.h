// ParcaeScheduler's decision loop as a SpotTrainingPolicy: a thin
// adapter that drives the shared SchedulerCore (Algorithm 1; see
// src/core/scheduler_core.h) against the interval-quantized cluster
// simulator. The core decides — forecast, liveput optimization, §8
// adaptation, migration planning — and this adapter keeps the ledger
// side: charging migration stalls to intervals (with spillover via
// IntervalAccountant), ParcaePS gradient-push overhead on iteration
// time, rollback sample loss, and the support-cost bill.
#pragma once

#include <memory>
#include <vector>

#include "core/scheduler_core.h"
#include "runtime/cluster_sim.h"
#include "runtime/interval_accountant.h"

namespace parcae {

// Every knob of the policy is the decision core's.
using ParcaePolicyOptions = SchedulerCoreOptions;

class ParcaePolicy final : public SpotTrainingPolicy {
 public:
  // `oracle` supplies the true future availability in kOracle mode
  // (the whole pool for a single job, its lease for a fleet job); the
  // core copies its series at construction.
  ParcaePolicy(ModelProfile model, ParcaePolicyOptions options,
               const SpotTrace* oracle = nullptr);

  std::string name() const override;
  void reset() override;
  IntervalDecision on_interval(int interval_index,
                               const AvailabilityEvent& event,
                               double interval_s) override;
  double support_cost_usd_per_hour() const override;

  const std::vector<MigrationLogEntry>& migration_log() const {
    return core_.migration_log();
  }
  // Structured audit trail of everything the scheduler saw and did.
  const EventLog& telemetry() const { return core_.telemetry(); }
  const ThroughputModel& throughput_model() const {
    return core_.throughput_model();
  }
  const SchedulerCore& scheduler() const { return core_; }

 private:
  SchedulerCore core_;
  IntervalAccountant accountant_;
};

}  // namespace parcae
