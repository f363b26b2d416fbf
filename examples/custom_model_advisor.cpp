// Using the public API for a model that is not in the paper's zoo:
// define a profile for a hypothetical 13B-parameter transformer, ask
// the memory model where it fits, inspect THROUGHPUT(D, P), compute
// liveput under preemption scenarios (Definition 1), and get a
// liveput-optimal plan for a forecast availability sequence.
#include <cstdio>

#include "common/table.h"
#include "core/interval_dp.h"
#include "core/liveput.h"
#include "core/objective.h"
#include "migration/cost_model.h"
#include "model/memory_model.h"
#include "model/model_profile.h"
#include "parallel/throughput_model.h"

using namespace parcae;

int main() {
  // 1. Describe the model.
  ModelProfile model;
  model.name = "GPT-13B";
  model.parameters = 13e9;
  model.partition_units = 40;  // transformer layers
  model.tokens_per_sample = 2048;
  model.mini_batch = 64;
  model.micro_batch = 1;
  model.fwd_flops_per_sample = 2.0 * model.parameters * model.tokens_per_sample;
  model.effective_flops = 45e12;
  model.boundary_activation_bytes = 2048.0 * 5120.0 * 2.0;
  model.unit_activation_bytes = 17.0 * model.boundary_activation_bytes;
  model.activation_recompute = true;
  model.sample_unit = "token";

  // 2. Where does it fit on 16 GB GPUs?
  const MemoryModel memory(model, MemorySpec::parcae());
  std::printf("%s: %.1fB parameters, min pipeline depth on V100-16GB: %d\n\n",
              model.name.c_str(), model.parameters / 1e9,
              memory.min_feasible_depth());

  // 3. Throughput across configurations.
  const ThroughputModel tm(model, {});
  TextTable configs({"instances", "best config", "tokens/s"});
  for (int n : {16, 20, 24, 28, 32}) {
    const ParallelConfig best = tm.best_config(n);
    configs.row()
        .add(n)
        .add(best.valid() ? best.to_string() : "none")
        .add(tm.unit_throughput(best), 0);
  }
  std::printf("%s\n", configs.to_string().c_str());

  // 4. Liveput on 32 instances: the full-width pipeline maximizes
  // throughput but a single preemption kills it; a shorter pipeline
  // with idle spares keeps positive expected throughput (inter-stage
  // recovery column) — Definition 1's robustness trade-off.
  PreemptionSampler sampler(7, 1024);
  const LiveputEstimator liveput(&tm, &sampler);
  TextTable lp({"config (spares)", "throughput", "liveput k=1", "k=2",
                "with inter-stage k=2"});
  for (const ParallelConfig c : {ParallelConfig{1, 32}, ParallelConfig{1, 20}}) {
    const int spares = 32 - c.instances();
    lp.row()
        .add(c.to_string() + " (+" + std::to_string(spares) + ")")
        .add(tm.throughput(c), 2)
        .add(liveput.liveput(c, spares, 1), 2)
        .add(liveput.liveput(c, spares, 2), 2)
        .add(liveput.liveput_with_inter_stage(c, spares, 2), 2);
  }
  std::printf("%s\n", lp.to_string().c_str());

  // 5. A liveput-optimal plan for a predicted availability decline.
  // The §7 look-ahead DP, maximizing the training objective.
  const LiveputObjective objective(&tm);
  IntervalDp optimizer(&objective, CostEstimator(model));
  const std::vector<int> forecast{30, 28, 26, 26, 24, 24, 26, 28, 30, 30};
  const IntervalPlan plan = optimizer.optimize(tm.best_config(30), 30,
                                               forecast);
  std::printf("liveput-optimal plan for forecast availability:\n");
  for (std::size_t i = 0; i < plan.configs.size(); ++i)
    std::printf("  interval %zu: N=%d -> %s\n", i, forecast[i],
                plan.configs[i].valid() ? plan.configs[i].to_string().c_str()
                                        : "suspend");
  std::printf("expected committed samples over the window: %.0f\n",
              plan.expected_value);
  return 0;
}
