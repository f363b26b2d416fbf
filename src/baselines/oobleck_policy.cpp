#include "baselines/oobleck_policy.h"

#include <algorithm>
#include <cmath>

#include "baselines/varuna_policy.h"

namespace parcae {
namespace {

// Same-template recovery (borrow a replica / drop a pipeline): planned
// ahead, peer-to-peer, no checkpoint round-trip.
constexpr double kRecoveryStallS = 8.0;
// Lineage only survives while another pipeline replica holds the
// stage. Running a single pipeline, a preemption destroys state and
// falls back to the periodic remote checkpoint.
constexpr double kCheckpointPeriodS = 300.0;

}  // namespace

OobleckPolicy::OobleckPolicy(ModelProfile model)
    : model_(std::move(model)), throughput_(model_), estimator_(model_) {
  const int min_depth = std::max(1, throughput_.min_pipeline_depth());
  for (int p = min_depth; p <= std::min(32, model_.partition_units); ++p)
    templates_.push_back(p);
}

void OobleckPolicy::reset() {
  current_ = kIdleConfig;
  accountant_.reset();
  unsaved_samples_ = 0.0;
  train_since_save_s_ = 0.0;
}

ParallelConfig OobleckPolicy::best_instantiation(int available) const {
  ParallelConfig best = kIdleConfig;
  double best_tput = 0.0;
  const int max_pipelines =
      std::max(1, model_.mini_batch / model_.micro_batch);
  for (int p : templates_) {
    const int d = std::min(available / p, max_pipelines);
    if (d < 1) continue;
    const ParallelConfig c{d, p};
    const double tput = throughput_.throughput(c);
    if (tput > best_tput) {
      best_tput = tput;
      best = c;
    }
  }
  return best;
}

IntervalDecision OobleckPolicy::on_interval(int interval_index,
                                            const AvailabilityEvent& event,
                                            double interval_s) {
  (void)interval_index;
  IntervalDecision decision;
  const double T = interval_s;
  const ParallelConfig target = best_instantiation(event.available);

  // With a single pipeline, no replica holds the preempted stage's
  // lineage: fall back to the periodic remote checkpoint (reload and
  // lose the unsaved window).
  if (event.preempted > 0 && current_.valid() && current_.dp <= 1) {
    accountant_.add_stall(model_.parameters * kCheckpointBytesPerParam /
                          kObjectStorageBandwidthBytesPerS);
    decision.samples_lost = unsaved_samples_;
    unsaved_samples_ = 0.0;
    train_since_save_s_ = 0.0;
    decision.note = "single-pipeline state lost: checkpoint reload";
  } else if (target.valid()) {
    if (current_.valid() && target.pp != current_.pp) {
      // Re-instantiating a different template re-shards the model —
      // planned ahead, but the bytes still move.
      accountant_.add_stall(
          estimator_.pipeline_migration(current_, target).total());
      decision.note = transition_note("template switch", target);
    } else if (event.preempted > 0 || target != current_) {
      accountant_.add_stall(kRecoveryStallS);
    }
  }
  const double stall = accountant_.charge(T);

  IntervalAccountant::settle(decision, target,
                             target.valid() ? throughput_.throughput(target)
                                            : 0.0,
                             stall, T);
  if (target.valid()) {
    // Periodic checkpoint bookkeeping (only matters at D=1).
    const double train_s = std::max(0.0, T - stall);
    train_since_save_s_ += train_s;
    unsaved_samples_ += decision.samples_committed;
    if (train_since_save_s_ >= kCheckpointPeriodS) {
      const double leftover =
          std::fmod(train_since_save_s_, kCheckpointPeriodS);
      unsaved_samples_ = decision.throughput * leftover;
      train_since_save_s_ = leftover;
    }
  } else {
    decision.note = "no template fits the available instances";
  }
  current_ = target;
  return decision;
}

}  // namespace parcae
