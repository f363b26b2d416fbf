// Regenerates Figure 2: cumulative training progress of GPT-2 on 32
// spot instances under one trace, comparing Parcae, Parcae (Ideal),
// Bamboo, and Varuna. The paper reports Parcae at 2.4x over the
// baselines and 89% of the ideal's efficiency.
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 2", "GPT-2 cumulative progress on a spot trace");
  const ModelProfile model = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);

  const SimulationResult parcae =
      bench::run_parcae(model, trace, PredictionMode::kProactive);
  const SimulationResult ideal =
      bench::run_parcae(model, trace, PredictionMode::kOracle);
  const SimulationResult varuna = bench::run_varuna(model, trace);
  const SimulationResult bamboo = bench::run_bamboo(model, trace);

  std::printf("cumulative committed tokens (millions) every 5 minutes:\n");
  TextTable table({"minute", "Parcae", "Parcae(Ideal)", "Varuna", "Bamboo"});
  for (std::size_t i = 4; i < parcae.timeline.size(); i += 5) {
    const double scale = model.tokens_per_sample / 1e6;
    table.row()
        .add(static_cast<int>(i + 1))
        .add(parcae.timeline[i].cumulative_samples * scale, 1)
        .add(ideal.timeline[i].cumulative_samples * scale, 1)
        .add(varuna.timeline[i].cumulative_samples * scale, 1)
        .add(bamboo.timeline[i].cumulative_samples * scale, 1);
  }
  std::printf("%s\n", table.to_string().c_str());

  const double best_baseline =
      std::max(varuna.committed_samples, bamboo.committed_samples);
  std::printf("Parcae vs best baseline: %.2fx\n",
              parcae.committed_samples / best_baseline);
  std::printf("Parcae vs Varuna: %.2fx, vs Bamboo: %.2fx\n",
              parcae.committed_samples / varuna.committed_samples,
              parcae.committed_samples / bamboo.committed_samples);
  std::printf("Parcae efficiency of ideal: %.0f%%\n",
              100.0 * parcae.committed_samples / ideal.committed_samples);
  bench::paper_note(
      "Figure 2: Parcae outperforms Bamboo and Varuna by 2.4x and reaches "
      "89% of the ideal (all-knowing) case");
  return 0;
}
