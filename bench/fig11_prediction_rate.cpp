// Regenerates Figure 11: GPT-2 throughput on HA-DP as the prediction
// rate decreases (the optimizer re-runs every 1, 2, 4, or 8 intervals;
// the paper's "prediction rate" of 1 means once per minute).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 11", "prediction-rate sweep (GPT-2, HA-DP)");
  const ModelProfile model = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);

  TextTable table({"re-optimize every (min)", "prediction rate",
                   "Parcae tokens/s", "Ideal tokens/s"});
  for (int every : {1, 2, 4, 8}) {
    ParcaePolicyOptions options;
    options.reoptimize_every = every;
    const SimulationResult parcae =
        bench::run_parcae(model, trace, PredictionMode::kProactive, options);
    const SimulationResult ideal =
        bench::run_parcae(model, trace, PredictionMode::kOracle, options);
    table.row()
        .add(every)
        .add(format_double(1.0 / every, 2) + "/min")
        .add(parcae.avg_unit_throughput, 0)
        .add(ideal.avg_unit_throughput, 0);
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Figure 11: throughput decreases as the prediction rate drops; the "
      "liveput optimizer is fast enough (<0.3 s, Fig 18b) to run every "
      "minute");
  return 0;
}
