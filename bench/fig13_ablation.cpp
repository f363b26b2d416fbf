// Regenerates Figure 13: decomposed speedup on GPT-2 — starting from
// a checkpoint-based, throughput-optimized system (Varuna), adding
// ParcaePS + live migration (Parcae-Reactive), then adding
// liveput-optimized configurations (full Parcae).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 13", "component ablation on GPT-2");
  const ModelProfile model = gpt2_profile();

  TextTable table({"trace", "ckpt+tput-opt (base)", "+PS & migration",
                   "+liveput (Parcae)", "migration gain", "liveput gain"});
  double liveput_gain_sum = 0.0;
  for (const SpotTrace& trace : all_canonical_segments()) {
    const double base =
        bench::run_varuna(model, trace).committed_samples;
    const double reactive =
        bench::run_parcae(model, trace, PredictionMode::kReactive)
            .committed_samples;
    const double full =
        bench::run_parcae(model, trace, PredictionMode::kProactive)
            .committed_samples;
    liveput_gain_sum += full / reactive - 1.0;
    table.row()
        .add(trace.name())
        .add(1.0, 2)
        .add(reactive / base, 2)
        .add(full / base, 2)
        .add(format_double(100.0 * (reactive / base - 1.0), 0) + "%")
        .add(format_double(100.0 * (full / reactive - 1.0), 1) + "%");
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("average liveput gain over migration-only: %.1f%%\n",
              100.0 * liveput_gain_sum / 4.0);
  bench::paper_note(
      "Figure 13: ParcaePS + migration improve throughput by 13-67% over "
      "the checkpoint-based base; liveput-optimized configurations add a "
      "further ~25.5% on average");
  return 0;
}
