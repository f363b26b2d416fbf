// Per-instance GPU memory model.
//
// Determines which pipeline depths P fit a model onto a 16 GB V100 for
// a given training system. The per-system differences (documented in
// DESIGN.md §2) reproduce the feasibility limits the paper reports:
// Bamboo must hold its successor's redundant model states (2x copies)
// and needs P >= ~20 for GPT-3; Varuna's checkpoint-based stack has
// the worst fragmentation and cannot form a GPT-3 pipeline on the
// ~15-instance L_A S_P trace at all (its min depth is 17); Parcae runs
// GPT-3 at P >= 9.
#pragma once

#include "model/model_profile.h"

namespace parcae {

// GPU-resident training-state bytes per parameter: fp16 weights (2)
// + fp16 grads (2) + fp32 master weights (4) + Adam m/v (8). Also what
// inter-stage migration moves (migration/cost_model.cpp).
inline constexpr double kStateBytesPerParam = 16.0;

struct MemorySpec {
  // Usable fraction of physical memory after allocator fragmentation
  // and framework slack; calibrated per system (see DESIGN.md §2).
  double efficiency = 0.85;
  // Copies of model states held per instance (Bamboo: 2 — its own
  // stage plus its successor's redundant stage).
  int model_state_copies = 1;

  static MemorySpec parcae() { return MemorySpec{}; }
  static MemorySpec varuna() {
    MemorySpec s;
    s.efficiency = 0.50;
    return s;
  }
  static MemorySpec bamboo() {
    MemorySpec s;
    s.efficiency = 0.75;
    s.model_state_copies = 2;
    return s;
  }
};

class MemoryModel {
 public:
  MemoryModel(ModelProfile model, MemorySpec spec);

  // Bytes one instance needs to hold stage `1/P` of the model,
  // including in-flight 1F1B activations and recompute workspace.
  double stage_memory_bytes(int pipeline_depth) const;

  // Memory budget available per instance.
  double budget_bytes() const;

  bool fits(int pipeline_depth) const;

  // Smallest feasible pipeline depth, or -1 if none up to max_depth.
  int min_feasible_depth(int max_depth = 64) const;

  const ModelProfile& model() const { return model_; }
  const MemorySpec& spec() const { return spec_; }

 private:
  ModelProfile model_;
  MemorySpec spec_;
};

}  // namespace parcae
