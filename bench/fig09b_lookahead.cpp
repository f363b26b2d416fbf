// Regenerates Figure 9b: GPT-2 training throughput as a function of
// the look-ahead window (1, 4, 8, 12, 14 intervals) for Parcae (ARIMA
// forecasts) and Parcae (Ideal, true future).
//
// Reported on two trace regimes. The paper's collected HA-DP has
// multi-interval availability ramps that reward long look-ahead; our
// Table-1-exact HA-DP reconstruction is mean-reverting (brief dips),
// where holding the current configuration is near-optimal at any
// horizon — the look-ahead benefit appears on the ramping LA-DP
// segment instead, and the prediction-error decline at long horizons
// appears on both.
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 9b", "look-ahead interval sweep (GPT-2)");
  const ModelProfile model = gpt2_profile();

  for (TraceSegment segment :
       {TraceSegment::kLowAvailDense, TraceSegment::kHighAvailDense}) {
    const SpotTrace trace = canonical_segment(segment);
    std::printf("trace %s:\n", trace.name().c_str());
    TextTable table({"look-ahead", "Parcae tokens/s", "Ideal tokens/s",
                     "Parcae/Ideal %"});
    double ideal_at_1 = 0.0, ideal_at_12 = 0.0;
    for (int lookahead : {1, 4, 8, 12, 14}) {
      ParcaePolicyOptions options;
      options.lookahead = lookahead;
      const SimulationResult parcae =
          bench::run_parcae(model, trace, PredictionMode::kProactive, options);
      const SimulationResult ideal =
          bench::run_parcae(model, trace, PredictionMode::kOracle, options);
      if (lookahead == 1) ideal_at_1 = ideal.avg_unit_throughput;
      if (lookahead == 12) ideal_at_12 = ideal.avg_unit_throughput;
      table.row()
          .add(lookahead)
          .add(parcae.avg_unit_throughput, 0)
          .add(ideal.avg_unit_throughput, 0)
          .add(100.0 * parcae.committed_samples / ideal.committed_samples,
               1);
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("ideal at look-ahead 12 vs 1: %.2fx\n\n",
                ideal_at_12 / ideal_at_1);
  }
  bench::paper_note(
      "Figure 9b: the ideal keeps improving with longer look-ahead (best "
      "at 12); Parcae gains sharply from 1 to 4, peaks around 12, and "
      "prediction error erodes longer horizons (~12.8% below ideal)");
  return 0;
}
