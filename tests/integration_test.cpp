// End-to-end integration tests: whole-system simulations over the
// paper's trace segments, checking the qualitative results the
// evaluation section reports (who wins, where systems fail entirely,
// and the proactive-vs-reactive ordering).
#include <gtest/gtest.h>

#include "baselines/bamboo_policy.h"
#include "baselines/ondemand_policy.h"
#include "baselines/varuna_policy.h"
#include "model/model_profile.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

SimulationResult run_parcae(const ModelProfile& m, const SpotTrace& trace,
                            PredictionMode mode) {
  ParcaePolicyOptions options;
  options.mode = mode;
  ParcaePolicy policy(m, options, &trace);
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;
  return simulate(policy, trace, sim);
}

SimulationResult run_varuna(const ModelProfile& m, const SpotTrace& trace) {
  VarunaPolicy policy(m);
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;
  return simulate(policy, trace, sim);
}

SimulationResult run_bamboo(const ModelProfile& m, const SpotTrace& trace) {
  BambooPolicy policy(m);
  SimulationOptions sim;
  sim.units_per_sample = m.tokens_per_sample;
  return simulate(policy, trace, sim);
}

struct Scenario {
  const char* model;
  TraceSegment segment;
};

class EndToEndTest : public ::testing::TestWithParam<Scenario> {};

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> out;
  for (const char* model :
       {"ResNet-152", "VGG-19", "BERT-Large", "GPT-2", "GPT-3"})
    for (TraceSegment segment :
         {TraceSegment::kHighAvailDense, TraceSegment::kHighAvailSparse,
          TraceSegment::kLowAvailDense, TraceSegment::kLowAvailSparse})
      out.push_back({model, segment});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndTraces, EndToEndTest, ::testing::ValuesIn(all_scenarios()),
    [](const auto& info) {
      std::string name = std::string(info.param.model) + "_" +
                         trace_segment_name(info.param.segment);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST_P(EndToEndTest, ParcaeBeatsReactiveBaselines) {
  const ModelProfile m = model_by_name(GetParam().model);
  const SpotTrace trace = canonical_segment(GetParam().segment);
  const double parcae =
      run_parcae(m, trace, PredictionMode::kProactive).committed_samples;
  const double varuna = run_varuna(m, trace).committed_samples;
  const double bamboo = run_bamboo(m, trace).committed_samples;
  EXPECT_GT(parcae, varuna) << m.name;
  EXPECT_GT(parcae, bamboo) << m.name;
}

TEST_P(EndToEndTest, IdealUpperBoundsArima) {
  const ModelProfile m = model_by_name(GetParam().model);
  const SpotTrace trace = canonical_segment(GetParam().segment);
  const double ideal =
      run_parcae(m, trace, PredictionMode::kOracle).committed_samples;
  const double arima =
      run_parcae(m, trace, PredictionMode::kProactive).committed_samples;
  // Figure 9b: Parcae with real predictions reaches ~87% of the
  // oracle; it must never meaningfully exceed it.
  EXPECT_LE(arima, ideal * 1.02) << m.name;
  EXPECT_GE(arima, ideal * 0.70) << m.name;
}

TEST(EndToEnd, Gpt3LowAvailabilityOnlyParcaeProgresses) {
  // The paper's headline scalability result: on L_A S_P, Varuna and
  // Bamboo cannot make *any* progress training GPT-3, while Parcae
  // runs near its ideal.
  const ModelProfile m = gpt3_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailSparse);
  EXPECT_DOUBLE_EQ(run_varuna(m, trace).committed_samples, 0.0);
  EXPECT_DOUBLE_EQ(run_bamboo(m, trace).committed_samples, 0.0);
  const double parcae =
      run_parcae(m, trace, PredictionMode::kProactive).committed_samples;
  const double ideal =
      run_parcae(m, trace, PredictionMode::kOracle).committed_samples;
  EXPECT_GT(parcae, 0.0);
  EXPECT_GT(parcae, ideal * 0.85);
}

TEST(EndToEnd, ProactiveBeatsReactiveUnderDensePreemptions) {
  // Figure 14's ordering at high preemption intensity.
  const ModelProfile m = gpt2_profile();
  Rng rng(5);
  SyntheticTraceOptions options;
  options.preemption_events = 24;
  options.target_availability = 30.0;
  const SpotTrace trace = synthesize_trace(options, rng);
  const double proactive =
      run_parcae(m, trace, PredictionMode::kProactive).committed_samples;
  const double reactive =
      run_parcae(m, trace, PredictionMode::kReactive).committed_samples;
  EXPECT_GT(proactive, reactive);
}

TEST(EndToEnd, SpotTrainingIsCheaperPerTokenThanOnDemand) {
  // Table 2's economics: Parcae's cost per token beats on-demand by
  // 2-5x on every trace segment.
  const ModelProfile m = gpt2_profile();
  OnDemandPolicy od(m);
  SimulationOptions od_sim;
  od_sim.instances_are_ondemand = true;
  od_sim.units_per_sample = m.tokens_per_sample;
  const SimulationResult ondemand =
      simulate(od, flat_trace(32, 3600.0), od_sim);
  for (const SpotTrace& trace : all_canonical_segments()) {
    const SimulationResult parcae =
        run_parcae(m, trace, PredictionMode::kProactive);
    EXPECT_LT(parcae.cost_per_unit, ondemand.cost_per_unit)
        << trace.name();
    EXPECT_GT(ondemand.cost_per_unit / parcae.cost_per_unit, 1.5)
        << trace.name();
  }
}

TEST(EndToEnd, GpuHourBreakdownShapesMatchFigure12) {
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  const SimulationResult parcae =
      run_parcae(m, trace, PredictionMode::kProactive);
  const SimulationResult bamboo = run_bamboo(m, trace);
  const SimulationResult varuna = run_varuna(m, trace);
  // Parcae spends the majority of GPU hours on effective compute.
  EXPECT_GT(parcae.gpu_hours.effective / parcae.gpu_hours.total(), 0.5);
  // Bamboo burns a large share on redundancy; Parcae none.
  EXPECT_DOUBLE_EQ(parcae.gpu_hours.redundant, 0.0);
  EXPECT_GT(bamboo.gpu_hours.redundant / bamboo.gpu_hours.total(), 0.2);
  // Varuna wastes more on handling+lost than Parcae does.
  EXPECT_GT(varuna.gpu_hours.handling + varuna.gpu_hours.lost,
            parcae.gpu_hours.handling + parcae.gpu_hours.lost);
}

TEST(EndToEnd, LongerLookaheadHelpsTheOracle) {
  // Figure 9b: Parcae(Ideal) improves with longer look-ahead windows.
  const ModelProfile m = gpt2_profile();
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  auto run_with_lookahead = [&](int I) {
    ParcaePolicyOptions options;
    options.mode = PredictionMode::kOracle;
    options.lookahead = I;
    ParcaePolicy policy(m, options, &trace);
    return simulate(policy, trace, {}).committed_samples;
  };
  const double one = run_with_lookahead(1);
  const double twelve = run_with_lookahead(12);
  EXPECT_GE(twelve, one * 0.98);
}

TEST(EndToEnd, MultiGpuInstancesCostMorePerToken) {
  // Figure 10: 4-GPU instances pack work at node granularity (a new
  // pipeline needs 4 more GPUs) and one preemption interrupts four
  // GPU-pipelines at once — despite the derived trace's extra GPU
  // hours, Parcae-S wins on cost per token.
  const ModelProfile m = bert_large_profile();
  const SpotTrace single = canonical_segment(TraceSegment::kHighAvailDense);
  const SpotTrace nodes = derive_multi_gpu_trace(single, 4);

  SimulationOptions sim_s;
  sim_s.units_per_sample = m.tokens_per_sample;
  ParcaePolicy policy_s(m, {});
  const SimulationResult rs = simulate(policy_s, single, sim_s);

  SimulationOptions sim_m = sim_s;
  sim_m.gpus_per_instance = 4;
  ParcaePolicy policy_m(as_multi_gpu_node(m, 4), {});
  const SimulationResult rm = simulate(policy_m, nodes, sim_m);

  EXPECT_LT(rs.cost_per_unit, rm.cost_per_unit);
}

}  // namespace
}  // namespace parcae
