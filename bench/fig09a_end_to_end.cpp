// Regenerates Figure 9a (and Figure 17, the VGG-19 panel): end-to-end
// training throughput of every model on every trace segment for
// Varuna, Bamboo, Parcae, and Parcae (Ideal), with the on-demand
// throughput as the reference line and the paper's speedup labels.
// Also prints Table 5 (Bamboo's fixed parallel configurations).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 9a / Figure 17",
                "end-to-end throughput, 5 models x 4 traces");

  TextTable table({"model", "trace", "unit", "Varuna", "Bamboo", "Parcae",
                   "Parcae(Ideal)", "On-Demand", "vs Varuna", "vs Bamboo",
                   "% of ideal"});
  for (const ModelProfile& model : model_zoo()) {
    const SimulationResult ondemand =
        bench::run_ondemand(model, 3600.0);
    for (const SpotTrace& trace : all_canonical_segments()) {
      const SimulationResult varuna = bench::run_varuna(model, trace);
      const SimulationResult bamboo = bench::run_bamboo(model, trace);
      const SimulationResult parcae =
          bench::run_parcae(model, trace, PredictionMode::kProactive);
      const SimulationResult ideal =
          bench::run_parcae(model, trace, PredictionMode::kOracle);
      auto speedup = [&](const SimulationResult& base) {
        return base.committed_samples > 0.0
                   ? format_double(
                         parcae.committed_samples / base.committed_samples,
                         1) + "x"
                   : std::string("inf");
      };
      table.row()
          .add(model.name)
          .add(trace.name())
          .add(model.sample_unit + "/s")
          .add(varuna.avg_unit_throughput, 0)
          .add(bamboo.avg_unit_throughput, 0)
          .add(parcae.avg_unit_throughput, 0)
          .add(ideal.avg_unit_throughput, 0)
          .add(ondemand.avg_unit_throughput, 0)
          .add(speedup(varuna))
          .add(speedup(bamboo))
          .add(100.0 * parcae.committed_samples /
                   std::max(1.0, ideal.committed_samples),
               0);
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Figure 9a: Parcae outperforms Varuna/Bamboo on almost all "
      "model-trace pairs (avg 2.59x over Varuna, 3.02x over Bamboo; up to "
      "9.9x/10.8x on GPT-3); Varuna is closest on LA-SP (sparse "
      "preemptions favor checkpointing)");
  bench::paper_note(
      "Figure 17: VGG-19 rows — Varuna achieves comparable performance to "
      "Parcae on LA-SP");

  bench::header("Table 5", "Bamboo's fixed parallel configurations");
  TextTable t5({"Model", "D (at 32 instances)", "P"});
  for (const ModelProfile& model : model_zoo()) {
    const int p = bamboo_table5_depth(model);
    t5.row().add(model.name).add(32 / p).add(p);
  }
  std::printf("%s\n", t5.to_string().c_str());
  bench::paper_note("Table 5: D/P = 8/4, 8/4, 4/8, 2/16, 1/23");
  return 0;
}
