#include "baselines/varuna_policy.h"

#include <algorithm>
#include <cmath>

#include "runtime/pricing.h"

namespace parcae {
namespace {

// Fixed reconfiguration cost on top of the checkpoint load (process
// respawn, rendezvous, model rebuild).
constexpr double kReconfigureFixedS = 35.0;

}  // namespace

VarunaPolicy::VarunaPolicy(ModelProfile model, VarunaOptions options)
    : model_(std::move(model)),
      options_(options),
      throughput_(model_, {.memory = MemorySpec::varuna()}) {}

void VarunaPolicy::reset() {
  current_ = kIdleConfig;
  unsaved_samples_ = 0.0;
  train_since_save_s_ = 0.0;
  accountant_.reset();
}

double VarunaPolicy::checkpoint_save_time_s() const {
  return model_.parameters * kCheckpointBytesPerParam /
         kObjectStorageBandwidthBytesPerS;
}

double VarunaPolicy::support_cost_usd_per_hour() const {
  return Pricing{}.cloud_storage_usd_per_hour;
}

IntervalDecision VarunaPolicy::on_interval(int interval_index,
                                           const AvailabilityEvent& event,
                                           double interval_s) {
  IntervalDecision decision;
  const double T = interval_s;

  const bool availability_changed =
      event.preempted > 0 || event.allocated > 0 || interval_index == 0;

  if (event.preempted > 0 && current_.valid()) {
    // Roll back to the last completed checkpoint: everything trained
    // since is lost; the restart reloads the checkpoint from storage.
    decision.samples_lost = unsaved_samples_;
    unsaved_samples_ = 0.0;
    train_since_save_s_ = 0.0;
  }

  if (availability_changed) {
    // Job morphing to the throughput-optimal configuration.
    const ParallelConfig target = throughput_.best_config(event.available);
    if (target != current_ || event.preempted > 0) {
      if (target.valid()) {
        accountant_.add_stall(
            checkpoint_save_time_s()  // reload = same volume
            + kReconfigureFixedS);
      }
      current_ = target;
    }
  }

  // Consume as much of the outstanding stall as fits this interval.
  double stall = accountant_.charge(T);

  double tput = 0.0;
  if (current_.valid()) {
    tput = throughput_.throughput(current_);
    double train_s = std::max(0.0, T - stall);
    // Periodic checkpointing: each save stalls training for the
    // unoverlapped fraction of the save time.
    const double save_time = checkpoint_save_time_s();
    const double period = options_.checkpoint_period_s;
    double saves = 0.0;
    if (period > 0.0 && train_s > 0.0) {
      double progressed = train_since_save_s_ + train_s;
      while (progressed >= period) {
        progressed -= period;
        saves += 1.0;
      }
    }
    accountant_.add_stall(saves * save_time * options_.save_stall_fraction);
    const double save_stall = accountant_.charge(train_s);
    train_s -= save_stall;
    stall += save_stall;

    // Update checkpoint bookkeeping: a completed save persists all
    // samples up to its point in time.
    train_since_save_s_ += train_s;
    unsaved_samples_ += tput * train_s;
    if (saves > 0.0 && period > 0.0) {
      const double leftover = std::fmod(train_since_save_s_, period);
      train_since_save_s_ = leftover;
      unsaved_samples_ = tput * leftover;
    }
  }

  IntervalAccountant::settle(decision, current_, tput, stall, T);
  if (availability_changed && current_.valid())
    decision.note = transition_note("morph", current_);
  else if (!current_.valid())
    decision.note = "suspended (no feasible pipeline)";
  return decision;
}

}  // namespace parcae
