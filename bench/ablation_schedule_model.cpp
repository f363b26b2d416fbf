// Ablation/validation: the analytic (m + P - 1)(t_stage + 2 t_p2p)
// iteration-time formula versus the event-level 1F1B schedule
// simulator, across the paper's models and representative
// configurations — justifying the closed form the liveput optimizer
// evaluates thousands of times per run.
#include <cmath>

#include "bench/bench_util.h"
#include "common/table.h"
#include "parallel/pipeline_schedule.h"
#include "parallel/throughput_model.h"

using namespace parcae;

int main() {
  bench::header("Ablation", "analytic pipeline model vs 1F1B simulation");

  TextTable table({"model", "config", "microbatches", "analytic (s)",
                   "simulated (s)", "error %", "bubble %"});
  for (const ModelProfile& model : model_zoo()) {
    const ThroughputModel tm(model, {});
    const int min_p = std::max(1, tm.min_pipeline_depth());
    for (int p : {min_p, std::min(model.partition_units, min_p + 4),
                  std::min(model.partition_units, min_p + 10)}) {
      const int d = std::max(1, 24 / p);
      const ParallelConfig c{d, p};
      if (!tm.feasible(c)) continue;
      const double m = std::ceil(static_cast<double>(model.mini_batch) /
                                 (c.dp * model.micro_batch));
      const double t_total = model.train_flops_per_sample() *
                             model.micro_batch /
                             (c.pp * model.effective_flops);
      ScheduleParams params;
      params.stages = c.pp;
      params.microbatches = static_cast<int>(m);
      params.fwd_time_s = t_total * 0.25;
      params.bwd_time_s = t_total * 0.75;
      params.p2p_time_s = NetworkModel::p2p_time(
          model.boundary_activation_bytes * model.micro_batch);
      const ScheduleResult sim = simulate_1f1b(params);
      // Boundary transfers only exist with >= 2 stages (the
      // ThroughputModel makes the same distinction).
      const double comm = c.pp > 1 ? 2.0 * params.p2p_time_s : 0.0;
      const double analytic = (m + c.pp - 1) * (t_total + comm);
      table.row()
          .add(model.name)
          .add(c.to_string())
          .add(static_cast<int>(m))
          .add(analytic, 3)
          .add(sim.makespan_s, 3)
          .add(100.0 * (analytic / sim.makespan_s - 1.0), 1)
          .add(100.0 * sim.bubble_fraction, 1);
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "design ablation (DESIGN.md): the closed form stays within ~15% of "
      "the event-level schedule across the zoo; deeper pipelines carry "
      "larger bubbles, the Figure-3 robustness/efficiency trade-off");
  return 0;
}
