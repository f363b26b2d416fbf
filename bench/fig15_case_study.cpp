// Regenerates Figure 15: the case study comparing liveput-optimized
// Parcae with throughput-optimized Parcae-Reactive on GPT-2 over a
// 40-minute window of the HA-DP trace — per-interval availability,
// chosen D x P, and throughput (15a), plus cumulative tokens (15b).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 15", "case study: Parcae vs Parcae-Reactive (GPT-2)");
  const ModelProfile model = gpt2_profile();
  const SpotTrace full = canonical_segment(TraceSegment::kHighAvailDense);
  const SpotTrace trace = full.slice(0.0, 40 * 60.0, "HA-DP[0:40min]");

  const SimulationResult proactive =
      bench::run_parcae(model, trace, PredictionMode::kProactive);
  const SimulationResult reactive =
      bench::run_parcae(model, trace, PredictionMode::kReactive);

  std::printf("Figure 15a — per-interval behaviour:\n");
  TextTable table({"min", "avail", "reactive DxP", "reactive tok/s",
                   "proactive DxP", "proactive tok/s"});
  for (std::size_t i = 0; i < proactive.timeline.size(); ++i) {
    table.row()
        .add(static_cast<int>(i))
        .add(proactive.timeline[i].available)
        .add(reactive.timeline[i].config.to_string())
        .add(reactive.timeline[i].throughput * model.tokens_per_sample, 0)
        .add(proactive.timeline[i].config.to_string())
        .add(proactive.timeline[i].throughput * model.tokens_per_sample, 0);
  }
  std::printf("%s\n", table.to_string().c_str());

  int reactive_depth_changes = 0, proactive_depth_changes = 0;
  for (std::size_t i = 1; i < proactive.timeline.size(); ++i) {
    if (reactive.timeline[i].config.pp != reactive.timeline[i - 1].config.pp)
      ++reactive_depth_changes;
    if (proactive.timeline[i].config.pp !=
        proactive.timeline[i - 1].config.pp)
      ++proactive_depth_changes;
  }
  std::printf("pipeline-depth changes: reactive %d, proactive %d\n",
              reactive_depth_changes, proactive_depth_changes);

  std::printf("\nFigure 15b — accumulated tokens (millions):\n");
  TextTable cumulative({"minute", "Parcae-Reactive", "Parcae-Proactive"});
  for (std::size_t i = 4; i < proactive.timeline.size(); i += 5) {
    const double scale = model.tokens_per_sample / 1e6;
    cumulative.row()
        .add(static_cast<int>(i + 1))
        .add(reactive.timeline[i].cumulative_samples * scale, 1)
        .add(proactive.timeline[i].cumulative_samples * scale, 1);
  }
  std::printf("%s\n", cumulative.to_string().c_str());
  std::printf("proactive vs reactive after 40 min: %+.1f%%\n",
              100.0 * (proactive.committed_samples /
                           reactive.committed_samples -
                       1.0));
  bench::paper_note(
      "Figure 15: reactive greedily flips pipeline depth (e.g. 8 vs 13) "
      "and pays reconfigurations; Parcae holds stable depths, uses "
      "lightweight inter/intra-stage migrations, and accumulates ~16% "
      "more tokens within 40 minutes");
  return 0;
}
