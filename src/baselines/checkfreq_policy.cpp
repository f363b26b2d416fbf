#include "baselines/checkfreq_policy.h"

namespace parcae {

VarunaOptions CheckFreqPolicy::checkfreq_options() {
  VarunaOptions options;
  // Frequent, almost fully overlapped snapshots: tiny rollback window.
  options.checkpoint_period_s = 60.0;
  options.save_stall_fraction = 0.04;
  // Restores still come from object storage: a preempted instance's
  // local snapshot cache disappears with it.
  return options;
}

CheckFreqPolicy::CheckFreqPolicy(ModelProfile model)
    : inner_(std::move(model), checkfreq_options()) {}

}  // namespace parcae
