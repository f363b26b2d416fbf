#include "runtime/parcae_ps.h"

#include <cassert>

#include "common/fault.h"
#include "migration/cost_model.h"

namespace parcae {
namespace {

// Fraction of the push not hidden behind the next iteration's compute
// (the paper partitions gradients into small pieces for overlapping;
// a small residue remains).
constexpr double kPsUnoverlappedFraction = 0.05;

}  // namespace

double ps_sync_stall_s(double parameters) {
  return kPsUnoverlappedFraction * parameters * kPsGradBytesPerParam /
         kParcaePsBandwidthBytesPerS;
}

ParcaePs::ParcaePs(std::vector<float> initial, float lr, float beta1,
                   float beta2, float eps)
    : params_(1, initial.size()),
      grads_(1, initial.size()),
      adam_(lr, beta1, beta2, eps) {
  params_.raw() = std::move(initial);
}

void ParcaePs::restore(const std::vector<float>& parameters,
                       const std::vector<float>& optimizer_state) {
  std::lock_guard lock(mu_);
  assert(parameters.size() == params_.size());
  params_.raw() = parameters;
  std::vector<nn::ParamRef> refs{{&params_, &grads_}};
  adam_.initialize(refs);
  adam_.load_state(optimizer_state);
}

void ParcaePs::push_gradients(const std::vector<float>& grads) {
  std::lock_guard lock(mu_);
  // Fail before any mutation: a caller's retry re-pushes the same
  // gradient without double-applying it.
  if (faults_ != nullptr) faults_->maybe_throw("ps.push");
  assert(grads.size() == params_.size());
  grads_.raw() = grads;
  std::vector<nn::ParamRef> refs{{&params_, &grads_}};
  adam_.step(refs);
  ++version_;
}

std::vector<float> ParcaePs::parameters_snapshot() const {
  std::lock_guard lock(mu_);
  return params_.raw();
}

long long ParcaePs::version() const {
  std::lock_guard lock(mu_);
  return version_;
}

std::vector<float> ParcaePs::optimizer_state() const {
  std::lock_guard lock(mu_);
  return adam_.state();
}

void ParcaePs::set_fault_injector(FaultInjector* faults) {
  std::lock_guard lock(mu_);
  faults_ = faults;
}

}  // namespace parcae
