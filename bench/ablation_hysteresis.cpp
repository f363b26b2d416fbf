// Ablation: the voluntary depth-change hysteresis (see
// ParcaePolicyOptions). Without it, forecast noise makes the policy
// thrash between pipeline depths (the §10.4 reactive pathology); too
// much of it freezes the configuration and forgoes real improvements.
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Ablation", "depth-change hysteresis threshold");
  const ModelProfile model = gpt2_profile();

  TextTable table({"hysteresis", "HA-DP tokens (M)", "LA-DP tokens (M)",
                   "LA-SP tokens (M)"});
  for (double h : {0.0, 0.05, 0.15, 0.30, 0.60}) {
    ParcaePolicyOptions options;
    options.depth_change_hysteresis = h;
    auto run = [&](TraceSegment segment) {
      return bench::run_parcae(model, canonical_segment(segment),
                               PredictionMode::kProactive, options)
                 .committed_units /
             1e6;
    };
    table.row()
        .add(h, 2)
        .add(run(TraceSegment::kHighAvailDense), 1)
        .add(run(TraceSegment::kLowAvailDense), 1)
        .add(run(TraceSegment::kLowAvailSparse), 1);
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "design ablation (DESIGN.md): a moderate threshold (~0.15) suppresses "
      "forecast-noise thrash; the paper's case study shows the same "
      "behaviour qualitatively (Parcae holds depth 7 for 8 intervals)");
  return 0;
}
