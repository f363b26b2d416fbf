// The two oracles the warm-started IntervalDp is diffed against:
//   - ReferenceDp: the textbook interval DP, sharing nothing with
//     IntervalDp but the objective and a MigrationExpectation;
//   - WarmAndCold: the same engine twice, one warm-started and one
//     invalidated before every solve (a cold solve, every column
//     recomputed), so the warm start can be checked step by step.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/interval_dp.h"
#include "core/objective.h"
#include "migration/migration_expectation.h"
#include "model/model_profile.h"
#include "obs/metrics.h"

namespace parcae {

// Candidate-major, every edge priced afresh by its own
// MigrationExpectation::cost() plus the objective's switch stall, the
// same value formula and first-wins strict > over predecessors in jj
// order. No warm start, no predecessor pass, no pruning, no space cache.
class ReferenceDp {
 public:
  ReferenceDp(const SchedulingObjective* objective, const ModelProfile& model,
              const IntervalDpOptions& options, obs::MetricsRegistry* metrics)
      : objective_(objective),
        interval_s_(options.interval_s),
        migration_(CostEstimator(model), options.mc_trials, options.seed) {
    migration_.sampler().set_metrics(metrics);
  }

  IntervalPlan optimize(ParallelConfig current, int n_now,
                        const std::vector<int>& predicted,
                        const std::vector<double>& load) {
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const std::size_t I = predicted.size();
    std::vector<std::vector<ParallelConfig>> space(I);
    std::vector<std::vector<double>> best(I);
    std::vector<std::vector<int>> parent(I);
    for (std::size_t i = 0; i < I; ++i) {
      space[i] = objective_->candidates(predicted[i]);
      space[i].push_back(kIdleConfig);
      const int n_prev = i == 0 ? n_now : predicted[i - 1];
      const int k = std::max(0, n_prev - predicted[i]);
      const double load_i = load.empty() ? 0.0 : load[i];
      const auto value_of = [&](ParallelConfig from, ParallelConfig to) {
        double stall = migration_.cost(from, n_prev, to, k);
        const double sw =
            from.valid() ? objective_->switch_cost(from, load_i) : 0.0;
        if (sw > 0.0 && to.valid() && to != from) stall += sw;
        return objective_->rate(to, load_i) *
               std::max(0.0, interval_s_ - stall);
      };
      best[i].assign(space[i].size(), kNegInf);
      parent[i].assign(space[i].size(), -1);
      for (std::size_t j = 0; j < space[i].size(); ++j) {
        if (i == 0) {
          best[0][j] = value_of(current, space[0][j]);
          ++edges_priced_;
          continue;
        }
        for (std::size_t jj = 0; jj < space[i - 1].size(); ++jj) {
          if (best[i - 1][jj] == kNegInf) continue;
          ++edges_priced_;
          const double value =
              best[i - 1][jj] + value_of(space[i - 1][jj], space[i][j]);
          if (value > best[i][j]) {
            best[i][j] = value;
            parent[i][j] = static_cast<int>(jj);
          }
        }
      }
    }
    std::size_t arg = 0;
    for (std::size_t j = 1; j < best[I - 1].size(); ++j)
      if (best[I - 1][j] > best[I - 1][arg]) arg = j;
    IntervalPlan plan;
    plan.expected_value = std::max(0.0, best[I - 1][arg]);
    plan.configs.assign(I, kIdleConfig);
    int cursor = static_cast<int>(arg);
    for (std::size_t i = I; i-- > 0;) {
      plan.configs[i] = space[i][static_cast<std::size_t>(cursor)];
      if (i > 0) cursor = parent[i][static_cast<std::size_t>(cursor)];
    }
    return plan;
  }

  // Every edge out of a live predecessor, cumulatively.
  std::uint64_t edges_priced() const { return edges_priced_; }

 private:
  const SchedulingObjective* objective_;
  double interval_s_;
  MigrationExpectation migration_;
  std::uint64_t edges_priced_ = 0;
};

// optimize() solves on both engines and expects bit-identical plans.
// Each engine records into its own registry, so tests can also compare
// the Monte-Carlo summaries each drew.
class WarmAndCold {
 public:
  WarmAndCold(const SchedulingObjective* objective, const ModelProfile& model,
              const IntervalDpOptions& options)
      : warm_(objective, CostEstimator(model),
              with_metrics(options, &warm_metrics_)),
        cold_(objective, CostEstimator(model),
              with_metrics(options, &cold_metrics_)) {}

  IntervalPlan optimize(ParallelConfig current, int n_now,
                        const std::vector<int>& predicted,
                        const std::vector<double>& load = {}) {
    const IntervalPlan plan = warm_.optimize(current, n_now, predicted, load);
    cold_.invalidate();
    const IntervalPlan want = cold_.optimize(current, n_now, predicted, load);
    EXPECT_EQ(plan.configs, want.configs) << "solve " << solves_;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(plan.expected_value, want.expected_value)
        << "solve " << solves_;
    ++solves_;
    return plan;
  }

  // Both engines drew the same summaries, and drew some.
  void expect_same_draws() const {
    EXPECT_GT(warm_metrics_.counter_value("mc_sampler.samples"), 0.0);
    EXPECT_EQ(warm_metrics_.counter_value("mc_sampler.samples"),
              cold_metrics_.counter_value("mc_sampler.samples"));
  }

  const IntervalDp& warm() const { return warm_; }
  const IntervalDp& cold() const { return cold_; }
  const obs::MetricsRegistry& warm_metrics() const { return warm_metrics_; }

 private:
  static IntervalDpOptions with_metrics(IntervalDpOptions options,
                                        obs::MetricsRegistry* metrics) {
    options.metrics = metrics;
    return options;
  }

  obs::MetricsRegistry warm_metrics_;
  obs::MetricsRegistry cold_metrics_;
  IntervalDp warm_;
  IntervalDp cold_;
  int solves_ = 0;
};

}  // namespace parcae
