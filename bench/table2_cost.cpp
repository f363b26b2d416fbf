// Regenerates Table 2: monetary cost (×1e-6 USD) per image (ResNet,
// VGG) or per token (BERT, GPT-2, GPT-3) for on-demand, Varuna,
// Bamboo, and Parcae on the four trace segments, with the paper's
// "(n.nx)" multipliers relative to Parcae. Systems that make no
// progress print "-" exactly as the paper does.
#include <cmath>

#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

namespace {

std::string cost_cell(const SimulationResult& r, double parcae_cost) {
  if (!std::isfinite(r.cost_per_unit)) return "-";
  const double micro = r.cost_per_unit * 1e6;
  std::string s = format_double(micro, micro < 0.1 ? 3 : 2);
  if (parcae_cost > 0.0 && std::isfinite(parcae_cost))
    s += " (" + format_double(r.cost_per_unit / parcae_cost, 1) + "x)";
  return s;
}

}  // namespace

int main() {
  bench::header("Table 2", "monetary cost (x1e-6 USD) per image/token");

  TextTable table(
      {"Model", "Trace", "On-Demand", "Varuna", "Bamboo", "Parcae"});
  for (const ModelProfile& model : model_zoo()) {
    const SimulationResult ondemand = bench::run_ondemand(model, 3600.0);
    for (const SpotTrace& trace : all_canonical_segments()) {
      const SimulationResult varuna = bench::run_varuna(model, trace);
      const SimulationResult bamboo = bench::run_bamboo(model, trace);
      const SimulationResult parcae =
          bench::run_parcae(model, trace, PredictionMode::kProactive);
      table.row()
          .add(model.name)
          .add(trace.name())
          .add(cost_cell(ondemand, parcae.cost_per_unit))
          .add(cost_cell(varuna, parcae.cost_per_unit))
          .add(cost_cell(bamboo, parcae.cost_per_unit))
          .add(cost_cell(parcae, parcae.cost_per_unit));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Table 2: Parcae is cheapest everywhere (on-demand 2.3-4.8x, Varuna "
      "up to 9.9x on GPT-3 HA-DP, Bamboo up to 10.8x on GPT-3 LA-DP); on "
      "GPT-3 LA-SP Varuna and Bamboo show '-' (no progress at all)");
  return 0;
}
