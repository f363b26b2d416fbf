// Experiment matrix runner and reporting helpers.
//
// Runs the full {model} x {trace} x {system} grid the evaluation
// section sweeps and aggregates it into speedup/cost summaries and a
// Markdown report — the programmatic interface behind the bench
// harnesses, exposed so downstream users can score their own policies
// against the shipped ones.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "model/model_profile.h"
#include "runtime/cluster_sim.h"
#include "trace/spot_trace.h"

namespace parcae {

// A named policy factory: builds a fresh policy for a (model, trace)
// cell. Oracle-mode policies read the cell's trace at construction.
struct PolicySpec {
  std::string name;
  std::function<std::unique_ptr<SpotTrainingPolicy>(
      const ModelProfile&, const SpotTrace&)> make;
};

// The systems the paper compares: Parcae, Parcae(Ideal),
// Parcae-Reactive, Varuna, Bamboo.
std::vector<PolicySpec> standard_policies();

// Related-work systems beyond the paper's two baselines: Oobleck
// (pipeline templates), CheckFreq (fine-grained checkpointing), and a
// Snape-style on-demand + spot hybrid.
std::vector<PolicySpec> extended_policies();

struct CellResult {
  std::string model;
  std::string trace;
  std::string system;
  SimulationResult result;
};

struct MatrixOptions {
  std::vector<ModelProfile> models = model_zoo();
  std::vector<SpotTrace> traces = all_canonical_segments();
  std::vector<PolicySpec> policies = standard_policies();
};

// Runs every cell, one after another; deterministic (each cell owns
// its policy and metrics registry; ordered model-major, then trace,
// then policy).
std::vector<CellResult> run_matrix(const MatrixOptions& options);

struct SystemSummary {
  std::string system;
  // Geometric-mean speedup of Parcae over this system across all cells
  // where this system made progress; cells where it made none are
  // counted separately.
  double parcae_speedup_geomean = 0.0;
  int cells = 0;
  int cells_no_progress = 0;
  double avg_effective_share = 0.0;  // effective / total GPU hours
};

// Aggregates against the policy named `reference` (default "Parcae").
std::vector<SystemSummary> summarize(const std::vector<CellResult>& cells,
                                     const std::string& reference = "Parcae");

// Renders the full matrix and summary as a Markdown document.
std::string matrix_to_markdown(const std::vector<CellResult>& cells,
                               const std::vector<SystemSummary>& summary);

}  // namespace parcae
