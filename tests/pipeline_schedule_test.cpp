// Tests for the event-level pipeline schedule simulator and its
// agreement with the analytic throughput model's closed form.
#include <gtest/gtest.h>

#include <cmath>

#include "model/model_profile.h"
#include "parallel/pipeline_schedule.h"
#include "parallel/throughput_model.h"

namespace parcae {
namespace {

TEST(PipelineSchedule, SingleStageIsSequential) {
  ScheduleParams params{1, 5, 1.0, 2.0, 0.0};
  const ScheduleResult r = simulate_1f1b(params);
  EXPECT_DOUBLE_EQ(r.makespan_s, 5.0 * 3.0);
  EXPECT_NEAR(r.bubble_fraction, 0.0, 1e-12);
  EXPECT_EQ(r.peak_in_flight, 1);
}

class ClassicMakespanTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClassicMakespanTest,
    ::testing::Values(std::pair{2, 4}, std::pair{4, 4}, std::pair{4, 16},
                      std::pair{8, 32}, std::pair{3, 7}));

TEST_P(ClassicMakespanTest, MatchesClosedFormWithoutComm) {
  // With zero p2p cost, both schedules finish in (M + P - 1) * (f + b):
  // the classic pipeline bubble result the analytic model uses.
  const auto [p, m] = GetParam();
  ScheduleParams params{p, m, 1.0, 2.0, 0.0};
  const double expect = (m + p - 1) * 3.0;
  EXPECT_NEAR(simulate_1f1b(params).makespan_s, expect, 1e-9);
  EXPECT_NEAR(simulate_gpipe(params).makespan_s, expect, 1e-9);
}

TEST_P(ClassicMakespanTest, BubbleFractionIsPMinusOneOverTotal) {
  const auto [p, m] = GetParam();
  ScheduleParams params{p, m, 1.5, 1.5, 0.0};
  const ScheduleResult r = simulate_1f1b(params);
  EXPECT_NEAR(r.bubble_fraction,
              static_cast<double>(p - 1) / (m + p - 1), 1e-9);
}

TEST(PipelineSchedule, OneFOneBLimitsInFlightMicrobatches) {
  // The memory advantage of 1F1B: stage 0 holds at most P in-flight
  // microbatches, GPipe holds all M.
  ScheduleParams params{4, 16, 1.0, 2.0, 0.0};
  EXPECT_EQ(simulate_1f1b(params).peak_in_flight, 4);
  EXPECT_EQ(simulate_gpipe(params).peak_in_flight, 16);
}

TEST(PipelineSchedule, TasksRespectDependencies) {
  ScheduleParams params{3, 5, 1.0, 2.0, 0.25};
  const ScheduleResult r = simulate_1f1b(params);
  // Index tasks for cross-checking.
  auto find = [&](int stage, int mb, bool fwd) -> const PipelineTask& {
    for (const auto& t : r.tasks)
      if (t.stage == stage && t.microbatch == mb && t.forward == fwd)
        return t;
    ADD_FAILURE() << "task missing";
    static PipelineTask dummy;
    return dummy;
  };
  for (int m = 0; m < 5; ++m) {
    for (int s = 1; s < 3; ++s) {
      EXPECT_GE(find(s, m, true).start_s,
                find(s - 1, m, true).end_s + 0.25 - 1e-12);
      EXPECT_GE(find(s - 1, m, false).start_s,
                find(s, m, false).end_s + 0.25 - 1e-12);
    }
    EXPECT_GE(find(2, m, false).start_s, find(2, m, true).end_s - 1e-12);
  }
}

TEST(PipelineSchedule, StagesNeverOverlapThemselves) {
  ScheduleParams params{4, 8, 1.0, 1.7, 0.1};
  for (const ScheduleResult& r :
       {simulate_1f1b(params), simulate_gpipe(params)}) {
    for (int s = 0; s < params.stages; ++s) {
      double last_end = -1.0;
      for (const auto& t : r.tasks) {
        if (t.stage != s) continue;
        EXPECT_GE(t.start_s, last_end - 1e-12);
        last_end = t.end_s;
      }
    }
  }
}

TEST(PipelineSchedule, CommunicationStretchesMakespan) {
  ScheduleParams quiet{4, 8, 1.0, 2.0, 0.0};
  ScheduleParams chatty = quiet;
  chatty.p2p_time_s = 0.5;
  EXPECT_GT(simulate_1f1b(chatty).makespan_s,
            simulate_1f1b(quiet).makespan_s);
}

TEST(PipelineSchedule, AnalyticIterationTimeTracksSimulatedSchedule) {
  // The closed form used by ThroughputModel must stay within ~15% of
  // the event-level schedule for the paper's models/configs.
  const ModelProfile model = gpt2_profile();
  const ThroughputModel tm(model, {});
  for (const ParallelConfig c :
       {ParallelConfig{2, 8}, ParallelConfig{4, 6}, ParallelConfig{2, 13}}) {
    const double m = std::ceil(static_cast<double>(model.mini_batch) /
                               (c.dp * model.micro_batch));
    const double t_total = model.train_flops_per_sample() *
                           model.micro_batch /
                           (c.pp * model.effective_flops);
    ScheduleParams params;
    params.stages = c.pp;
    params.microbatches = static_cast<int>(m);
    // fwd : bwd+recompute = 1 : 3 of the total per-microbatch time.
    params.fwd_time_s = t_total * 0.25;
    params.bwd_time_s = t_total * 0.75;
    params.p2p_time_s =
        NetworkModel::p2p_time(model.boundary_activation_bytes *
                               model.micro_batch);
    const double simulated = simulate_1f1b(params).makespan_s;
    // Analytic pipeline part (without the all-reduce term).
    const double analytic =
        (m + c.pp - 1) * (t_total + 2.0 * params.p2p_time_s);
    EXPECT_NEAR(analytic / simulated, 1.0, 0.15)
        << c.to_string();
  }
}

}  // namespace
}  // namespace parcae
