#include "model/memory_model.h"

#include <algorithm>
#include <limits>

namespace parcae {
namespace {

// V100-16GB.
constexpr double kGpuMemoryBytes = 16.0 * (1ull << 30);
constexpr double kFrameworkOverheadBytes = 1.5 * (1ull << 30);

}  // namespace

MemoryModel::MemoryModel(ModelProfile model, MemorySpec spec)
    : model_(std::move(model)), spec_(spec) {}

double MemoryModel::budget_bytes() const {
  return kGpuMemoryBytes * spec_.efficiency - kFrameworkOverheadBytes;
}

double MemoryModel::stage_memory_bytes(int pipeline_depth) const {
  if (pipeline_depth <= 0 || pipeline_depth > model_.partition_units)
    return std::numeric_limits<double>::infinity();
  const double p = pipeline_depth;
  const double states = model_.parameters * kStateBytesPerParam / p *
                        spec_.model_state_copies;
  const double micro = model_.micro_batch;
  double activations;
  if (model_.activation_recompute) {
    // 1F1B: stage 0 holds up to P boundary activations, plus the
    // recompute workspace of one partition unit.
    activations = p * model_.boundary_activation_bytes * micro +
                  model_.unit_activation_bytes * micro;
  } else {
    // Without recompute every in-flight microbatch keeps all unit
    // activations of this stage: (units/P per stage) x (P in flight)
    // = all units' activations once.
    activations = static_cast<double>(model_.partition_units) *
                  model_.unit_activation_bytes * micro;
  }
  // Redundancy-based systems also run their successor's computation,
  // doubling in-flight activation footprint.
  const double act_copies = spec_.model_state_copies > 1 ? 2.0 : 1.0;
  return states + activations * act_copies;
}

bool MemoryModel::fits(int pipeline_depth) const {
  return stage_memory_bytes(pipeline_depth) <= budget_bytes();
}

int MemoryModel::min_feasible_depth(int max_depth) const {
  const int limit = std::min(max_depth, model_.partition_units);
  for (int p = 1; p <= limit; ++p)
    if (fits(p)) return p;
  return -1;
}

}  // namespace parcae
