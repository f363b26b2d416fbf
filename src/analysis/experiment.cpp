#include "analysis/experiment.h"

#include <cmath>
#include <map>
#include <sstream>

#include "baselines/bamboo_policy.h"
#include "baselines/checkfreq_policy.h"
#include "baselines/hybrid_policy.h"
#include "baselines/oobleck_policy.h"
#include "baselines/varuna_policy.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "runtime/parcae_policy.h"

namespace parcae {

std::vector<PolicySpec> standard_policies() {
  std::vector<PolicySpec> specs;
  specs.push_back({"Parcae", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<ParcaePolicy>(
                         m, ParcaePolicyOptions{});
                   }});
  specs.push_back(
      {"Parcae(Ideal)", [](const ModelProfile& m, const SpotTrace& trace) {
         ParcaePolicyOptions options;
         options.mode = PredictionMode::kOracle;
         return std::make_unique<ParcaePolicy>(m, options, &trace);
       }});
  specs.push_back(
      {"Parcae-Reactive", [](const ModelProfile& m, const SpotTrace&) {
         ParcaePolicyOptions options;
         options.mode = PredictionMode::kReactive;
         return std::make_unique<ParcaePolicy>(m, options);
       }});
  specs.push_back({"Varuna", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<VarunaPolicy>(m);
                   }});
  specs.push_back({"Bamboo", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<BambooPolicy>(m);
                   }});
  return specs;
}

std::vector<PolicySpec> extended_policies() {
  std::vector<PolicySpec> specs;
  specs.push_back({"Oobleck", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<OobleckPolicy>(m);
                   }});
  specs.push_back({"CheckFreq", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<CheckFreqPolicy>(m);
                   }});
  specs.push_back(
      {"Hybrid(OD+spot)", [](const ModelProfile& m, const SpotTrace&) {
         return std::make_unique<HybridSpotPolicy>(m);
       }});
  return specs;
}

std::vector<CellResult> run_matrix(const MatrixOptions& options) {
  std::vector<CellResult> cells;
  cells.reserve(options.models.size() * options.traces.size() *
                options.policies.size());
  for (const ModelProfile& model : options.models)
    for (const SpotTrace& trace : options.traces)
      for (const PolicySpec& spec : options.policies) {
        auto policy = spec.make(model, trace);
        SimulationOptions sim;
        sim.units_per_sample = model.tokens_per_sample;
        sim.record_timeline = false;
        // Fresh registry per cell: cell.result.metrics never mixes
        // instruments across the grid.
        obs::MetricsRegistry cell_metrics;
        sim.metrics = &cell_metrics;
        cells.push_back({model.name, trace.name(), spec.name,
                         simulate(*policy, trace, sim)});
      }
  return cells;
}

std::vector<SystemSummary> summarize(const std::vector<CellResult>& cells,
                                     const std::string& reference) {
  // Index the reference system's committed units per (model, trace).
  std::map<std::pair<std::string, std::string>, double> ref_units;
  for (const auto& cell : cells)
    if (cell.system == reference)
      ref_units[{cell.model, cell.trace}] = cell.result.committed_units;

  std::map<std::string, SystemSummary> by_system;
  for (const auto& cell : cells) {
    auto& summary = by_system[cell.system];
    summary.system = cell.system;
    ++summary.cells;
    const double total = cell.result.gpu_hours.total();
    if (total > 0.0)
      summary.avg_effective_share +=
          cell.result.gpu_hours.effective / total;
    const double ref = ref_units[{cell.model, cell.trace}];
    if (cell.result.committed_units <= 0.0) {
      ++summary.cells_no_progress;
      continue;
    }
    if (ref > 0.0)
      summary.parcae_speedup_geomean +=
          std::log(ref / cell.result.committed_units);
  }
  std::vector<SystemSummary> out;
  for (auto& [_, summary] : by_system) {
    const int progressed = summary.cells - summary.cells_no_progress;
    summary.parcae_speedup_geomean =
        progressed > 0 ? std::exp(summary.parcae_speedup_geomean / progressed)
                       : 0.0;
    summary.avg_effective_share /= std::max(1, summary.cells);
    out.push_back(summary);
  }
  return out;
}

std::string matrix_to_markdown(const std::vector<CellResult>& cells,
                               const std::vector<SystemSummary>& summary) {
  std::ostringstream os;
  os << "# Spot-training comparison matrix\n\n";
  os << "| model | trace | system | units/s | USD per 1M units | "
        "effective GPU-h % |\n";
  os << "|---|---|---|---|---|---|\n";
  for (const auto& cell : cells) {
    const auto& r = cell.result;
    os << "| " << cell.model << " | " << cell.trace << " | " << cell.system
       << " | " << format_double(r.avg_unit_throughput, 0) << " | "
       << (std::isfinite(r.cost_per_unit)
               ? format_double(r.cost_per_unit * 1e6, 3)
               : std::string("-"))
       << " | "
       << format_double(100.0 * r.gpu_hours.effective /
                            std::max(1e-9, r.gpu_hours.total()),
                        0)
       << " |\n";
  }
  os << "\n## Summary (geometric-mean Parcae speedup)\n\n";
  os << "| system | cells | no-progress cells | Parcae speedup | avg "
        "effective share |\n";
  os << "|---|---|---|---|---|\n";
  for (const auto& s : summary) {
    os << "| " << s.system << " | " << s.cells << " | "
       << s.cells_no_progress << " | "
       << format_double(s.parcae_speedup_geomean, 2) << "x | "
       << format_double(100.0 * s.avg_effective_share, 0) << "% |\n";
  }
  return os.str();
}

}  // namespace parcae
