#include "baselines/bamboo_policy.h"

#include <algorithm>

namespace parcae {
namespace {

// Extra compute per stage from redundant forward(+backward) work that
// pipeline bubbles cannot absorb, plus the synchronization between
// redundant and normal modules. Calibrated so redundant work is >40%
// of Bamboo's GPU hours, as the paper measures (Figure 12).
constexpr double kRedundantComputeFraction = 0.65;
constexpr double kRecoveryStallS = 12.0;  // per preemption event
constexpr double kJoinStallS = 6.0;       // incorporate new instances

}  // namespace

int bamboo_table5_depth(const ModelProfile& model) {
  if (model.name == "ResNet-152") return 4;
  if (model.name == "VGG-19") return 4;
  if (model.name == "BERT-Large") return 8;
  if (model.name == "GPT-2") return 16;
  if (model.name == "GPT-3") return 23;
  // Unknown model: twice the memory-model minimum as a heuristic.
  return 8;
}

BambooPolicy::BambooPolicy(ModelProfile model)
    : model_(std::move(model)),
      throughput_(model_, {.memory = MemorySpec::bamboo(),
                           .redundant_compute_fraction =
                               kRedundantComputeFraction}),
      depth_(bamboo_table5_depth(model_)) {}

void BambooPolicy::reset() {
  current_ = kIdleConfig;
  accountant_.reset();
}

IntervalDecision BambooPolicy::on_interval(int interval_index,
                                           const AvailabilityEvent& event,
                                           double interval_s) {
  (void)interval_index;
  IntervalDecision decision;
  const double T = interval_s;

  const int max_pipelines =
      std::max(1, model_.mini_batch / model_.micro_batch);
  const int d = std::min(event.available / depth_, max_pipelines);
  ParallelConfig target = d >= 1 ? ParallelConfig{d, depth_} : kIdleConfig;
  // The fixed depth must itself be memory-feasible: it is for the
  // Table-5 models, but the depth-8 fallback may not fit another one.
  if (target.valid() && !throughput_.feasible(target)) target = kIdleConfig;

  if (event.preempted > 0 && current_.valid())
    accountant_.add_stall(kRecoveryStallS);
  if ((event.allocated > 0 || target != current_) && target.valid())
    accountant_.add_stall(kJoinStallS);
  const double stall = accountant_.charge(T);

  IntervalAccountant::settle(decision, target,
                             target.valid() ? throughput_.throughput(target)
                                            : 0.0,
                             stall, T);
  if (target.valid()) {
    // Redundant share of the compute actually performed.
    const double r = kRedundantComputeFraction;
    decision.gpu_s_redundant = static_cast<double>(target.instances()) *
                               std::max(0.0, T - stall) * r / (1.0 + r);
  } else {
    decision.note = "suspended (fewer than P instances)";
  }
  current_ = target;
  return decision;
}

}  // namespace parcae
