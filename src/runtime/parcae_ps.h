// ParcaePS (§9.3): in-memory checkpointing on cheap on-demand CPU
// instances.
//
// Instead of shipping full model states to cloud storage, ParcaePS
// keeps an up-to-date replica of the training state in host DRAM by
// receiving the *gradients* of every committed iteration and applying
// the same optimizer update on the CPU side — 5x less traffic than
// shipping fp16 Adam states. Two pieces live here:
//   - ParcaePs: a real parameter server over flat float tensors with
//     its own Adam replica; after n identical gradient pushes its
//     parameters bit-match the trainer's (verified in tests),
//   - ps_sync_stall_s: the per-iteration gradient-push stall the
//     cluster simulator charges (rollback restores are priced by
//     CostEstimator::checkpoint_rollback).
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace parcae {

class FaultInjector;

// Locking rules: every mutating entry point (push_gradients, restore,
// set_fault_injector) and every by-value reader (parameters_snapshot,
// optimizer_state, version) takes mu_, so one replica may be shared
// between the driver thread and an RPC transport thread. The
// by-reference parameters() accessor is the lone exception — it
// cannot hold the lock across the caller's use, so it is reserved for
// single-threaded tests and same-thread readers; concurrent code must
// use parameters_snapshot().
class ParcaePs {
 public:
  // `initial` — the trainer's initial flat parameters; the PS applies
  // updates with its own Adam replica (same hyper-parameters as the
  // trainer's) so its state tracks the trainer exactly.
  ParcaePs(std::vector<float> initial, float lr, float beta1 = 0.9f,
           float beta2 = 0.999f, float eps = 1e-8f);

  // One committed iteration's mean gradient.
  void push_gradients(const std::vector<float>& grads);

  // Overwrites the checkpoint (parameters + Adam state) — used when a
  // pipeline migration re-shards the model and the PS replicas must
  // adopt the new sharding.
  void restore(const std::vector<float>& parameters,
               const std::vector<float>& optimizer_state);

  // Latest checkpoint (what a rollback restores). NOT thread-safe:
  // the reference stays live after mu_ is released — see the locking
  // rules above. Prefer parameters_snapshot() when any other thread
  // may push.
  const std::vector<float>& parameters() const { return params_.raw(); }
  // Thread-safe copy of the latest checkpoint.
  std::vector<float> parameters_snapshot() const;
  long long version() const;

  // Serialized optimizer state, for full-state restore.
  std::vector<float> optimizer_state() const;

  // Non-owning; nullptr disables injection. An armed "ps.push" point
  // makes push_gradients throw *before* touching any state, so a
  // retried push never double-applies a gradient.
  void set_fault_injector(FaultInjector* faults);

 private:
  mutable std::mutex mu_;
  nn::Matrix params_;  // [1, n]
  nn::Matrix grads_;   // [1, n] scratch
  nn::Adam adam_;
  long long version_ = 0;
  FaultInjector* faults_ = nullptr;
};

// fp16 gradients: the 5x saving over shipping fp16 Adam states.
inline constexpr double kPsGradBytesPerParam = 2.0;

// Per-iteration stall the gradient push to ParcaePS charges to
// training, for a model of `parameters` parameters.
double ps_sync_stall_s(double parameters);

}  // namespace parcae
