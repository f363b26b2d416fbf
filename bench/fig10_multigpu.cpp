// Regenerates Figure 10: BERT training throughput and monetary cost
// for Parcae on single-GPU instances (Parcae-S) vs 4-GPU instances
// (Parcae-M), with the multi-GPU trace derived per §10.2 (which
// favors the multi-GPU setting in total GPU hours).
#include "bench/bench_util.h"
#include "common/table.h"

using namespace parcae;

int main() {
  bench::header("Figure 10", "single- vs multi-GPU instances (BERT)");
  const ModelProfile model = bert_large_profile();
  const ModelProfile node_model = as_multi_gpu_node(model, 4);

  TextTable table({"trace", "Parcae-S tokens/s", "Parcae-M tokens/s",
                   "S cost (1e-8 USD/token)", "M cost (1e-8 USD/token)"});
  for (const SpotTrace& trace : all_canonical_segments()) {
    const SimulationResult single =
        bench::run_parcae(model, trace, PredictionMode::kProactive);

    const SpotTrace nodes = derive_multi_gpu_trace(trace, 4);
    ParcaePolicyOptions options;
    options.mode = PredictionMode::kProactive;
    ParcaePolicy policy(node_model, options);
    SimulationOptions sim = bench::sim_options(node_model);
    sim.gpus_per_instance = 4;
    const SimulationResult multi = simulate(policy, nodes, sim);

    table.row()
        .add(trace.name())
        .add(single.avg_unit_throughput, 0)
        .add(multi.avg_unit_throughput, 0)
        .add(single.cost_per_unit * 1e8, 2)
        .add(multi.cost_per_unit * 1e8, 2);
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Figure 10: Parcae-S beats Parcae-M on both throughput and cost — "
      "one 4-GPU preemption interrupts 4 pipelines and idle 4-GPU "
      "instances waste 4x the capacity");
  return 0;
}
