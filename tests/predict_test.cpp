// Tests for the availability predictors: the statistical baselines,
// ARIMA (differencing, Hannan-Rissanen fitting, forecasting), the
// Appendix-B guard rails, and the rolling-origin evaluation harness.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.h"
#include "predict/adaptive.h"
#include "predict/arima.h"
#include "predict/evaluation.h"
#include "predict/guards.h"
#include "predict/predictor.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

std::vector<double> constant_series(double v, int n) {
  return std::vector<double>(static_cast<std::size_t>(n), v);
}

std::vector<double> linear_series(double a, double b, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) out.push_back(a + b * i);
  return out;
}

TEST(NaivePredictor, RepeatsLastValue) {
  NaivePredictor p;
  const auto f = p.forecast(std::vector<double>{3.0, 5.0, 7.0}, 4);
  ASSERT_EQ(f.size(), 4u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(NaivePredictor, EmptyHistoryGivesZeros) {
  NaivePredictor p;
  const auto f = p.forecast({}, 3);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(MovingAveragePredictor, AveragesWindow) {
  MovingAveragePredictor p(3);
  const auto f = p.forecast(std::vector<double>{1.0, 100.0, 2.0, 4.0, 6.0}, 2);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f[0], 4.0);  // mean of 2,4,6
  EXPECT_DOUBLE_EQ(f[1], 4.0);
}

TEST(ExponentialSmoothing, ConvergesToConstant) {
  ExponentialSmoothingPredictor p(0.5);
  const auto f = p.forecast(constant_series(20.0, 30), 3);
  for (double v : f) EXPECT_NEAR(v, 20.0, 1e-6);
}

TEST(HoltPredictor, ExtrapolatesTrend) {
  HoltPredictor p(0.8, 0.5);
  const auto f = p.forecast(linear_series(10.0, 1.0, 40), 5);
  // On a perfect line Holt's trend converges to the true slope.
  EXPECT_NEAR(f[4] - f[0], 4.0, 0.2);
  EXPECT_GT(f[0], 48.0);
}

TEST(LinearTrendPredictor, RecoversExactLine) {
  LinearTrendPredictor p;
  const auto f = p.forecast(linear_series(5.0, -0.5, 24), 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f[0], 5.0 - 0.5 * 24, 1e-9);
  EXPECT_NEAR(f[3], 5.0 - 0.5 * 27, 1e-9);
}

TEST(DriftPredictor, ExtrapolatesMeanStep) {
  DriftPredictor p;
  // 10, 12, 14, 16: drift = 2 per interval.
  const auto f = p.forecast(std::vector<double>{10, 12, 14, 16}, 3);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f[0], 18.0);
  EXPECT_DOUBLE_EQ(f[2], 22.0);
  // Single observation degrades to naive.
  const auto g = p.forecast(std::vector<double>{5.0}, 2);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
}

TEST(SeasonalNaive, RepeatsThePeriod) {
  SeasonalNaivePredictor p(3);
  const auto f = p.forecast(std::vector<double>{1, 2, 3, 7, 8, 9}, 5);
  ASSERT_EQ(f.size(), 5u);
  EXPECT_DOUBLE_EQ(f[0], 7.0);
  EXPECT_DOUBLE_EQ(f[1], 8.0);
  EXPECT_DOUBLE_EQ(f[2], 9.0);
  EXPECT_DOUBLE_EQ(f[3], 7.0);  // wraps
  // Short history degrades to naive.
  const auto g = p.forecast(std::vector<double>{4.0, 5.0}, 2);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
}

TEST(MedianEnsemble, TakesPointwiseMedian) {
  std::vector<std::unique_ptr<AvailabilityPredictor>> members;
  members.push_back(std::make_unique<NaivePredictor>());        // 16
  members.push_back(std::make_unique<DriftPredictor>());        // rising
  members.push_back(std::make_unique<MovingAveragePredictor>(4));
  MedianEnsemblePredictor ensemble(std::move(members));
  const std::vector<double> history{10, 12, 14, 16};
  const auto f = ensemble.forecast(history, 2);
  ASSERT_EQ(f.size(), 2u);
  // Members at h=1: naive 16, drift 18, MA 13 -> median 16.
  EXPECT_DOUBLE_EQ(f[0], 16.0);
}

TEST(MedianEnsemble, RobustToOneCrazyMember) {
  // A diverging member cannot drag the ensemble.
  std::vector<std::unique_ptr<AvailabilityPredictor>> members;
  members.push_back(std::make_unique<NaivePredictor>());
  members.push_back(std::make_unique<NaivePredictor>());
  members.push_back(std::make_unique<LinearTrendPredictor>());
  MedianEnsemblePredictor ensemble(std::move(members));
  // Steep line: LinearTrend forecasts far above; the two naives hold.
  const auto f = ensemble.forecast(linear_series(0.0, 3.0, 20), 4);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 57.0);  // last value of series
}

// ---------------------------------------------------------------------------
// ARIMA internals.

TEST(Arima, DifferenceAndIntegrateRoundTrip) {
  const std::vector<double> xs{3.0, 5.0, 4.0, 8.0, 9.0, 7.0};
  for (int d = 0; d <= 2; ++d) {
    const auto z = difference(xs, d);
    EXPECT_EQ(z.size(), xs.size() - static_cast<std::size_t>(d));
  }
  // Integrating the "future diffs" continues the series: take the
  // first differences of a known extension and rebuild it.
  const std::vector<double> future{11.0, 10.0, 14.0};
  std::vector<double> diffs{future[0] - xs.back(), future[1] - future[0],
                            future[2] - future[1]};
  const auto rebuilt = integrate(diffs, xs, 1);
  ASSERT_EQ(rebuilt.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(rebuilt[i], future[i], 1e-9);
}

TEST(Arima, SecondOrderIntegration) {
  // xs with constant second difference of 2 (quadratic growth).
  std::vector<double> xs;
  for (int i = 0; i < 8; ++i) xs.push_back(static_cast<double>(i * i));
  const std::vector<double> dd{2.0, 2.0};  // future second differences
  const auto rebuilt = integrate(dd, xs, 2);
  ASSERT_EQ(rebuilt.size(), 2u);
  EXPECT_NEAR(rebuilt[0], 64.0, 1e-9);   // 8^2
  EXPECT_NEAR(rebuilt[1], 81.0, 1e-9);   // 9^2
}

TEST(Arima, FitRecoversAr1Coefficient) {
  // z_t = 0.7 z_{t-1} + e_t with small noise.
  Rng rng(11);
  std::vector<double> z{0.0};
  for (int i = 1; i < 400; ++i)
    z.push_back(0.7 * z.back() + rng.normal(0.0, 0.1));
  const ArimaCoefficients coef = fit_arma(z, 1, 0);
  ASSERT_TRUE(coef.valid);
  EXPECT_NEAR(coef.ar[0], 0.7, 0.08);
}

TEST(Arima, FitRefusesTinySamples) {
  const std::vector<double> z{1.0, 2.0};
  EXPECT_FALSE(fit_arma(z, 2, 1).valid);
}

TEST(ArimaPredictor, FallsBackToNaiveOnShortHistory) {
  ArimaPredictor p({2, 1, 1});
  const auto f = p.forecast(std::vector<double>{4.0, 5.0}, 3);
  ASSERT_EQ(f.size(), 3u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(ArimaPredictor, TracksLinearTrend) {
  ArimaPredictor p({1, 1, 0});
  const auto f = p.forecast(linear_series(10.0, 0.5, 40), 6);
  ASSERT_EQ(f.size(), 6u);
  // With d=1 the differenced series is constant 0.5; the last history
  // value is 29.5, so forecasts continue climbing at that rate.
  EXPECT_NEAR(f[0], 30.0, 0.3);
  EXPECT_NEAR(f[5], 32.5, 1.0);
}

TEST(ArimaPredictor, ConstantSeriesStaysConstant) {
  ArimaPredictor p({1, 1, 1});
  const auto f = p.forecast(constant_series(17.0, 30), 8);
  for (double v : f) EXPECT_NEAR(v, 17.0, 0.5);
}

TEST(AutoArima, SelectsSomeOrderAndForecasts) {
  AutoArimaPredictor p;
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  const auto series = trace.availability_series_d();
  const ArimaOrder order = p.select_order(series);
  EXPECT_GE(order.p + order.q, 1);
  const auto f = p.forecast(series, 12);
  ASSERT_EQ(f.size(), 12u);
  for (double v : f) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 64.0);
  }
}

// ---------------------------------------------------------------------------
// Appendix-B guards.

TEST(Guards, FlattenSpikesRemovesShortSpikes) {
  GuardConfig config;
  // 28 28 [4] 28 28: one-interval spike.
  const std::vector<double> h{28, 28, 4, 28, 28};
  const auto cleaned = flatten_spikes(h, config);
  EXPECT_NEAR(cleaned[2], 28.0, 1e-9);
  // Two-interval spike.
  const std::vector<double> h2{28, 28, 5, 6, 28, 28};
  const auto cleaned2 = flatten_spikes(h2, config);
  EXPECT_GT(cleaned2[2], 20.0);
  EXPECT_GT(cleaned2[3], 20.0);
}

TEST(Guards, FlattenSpikesKeepsRealRegimeChanges) {
  GuardConfig config;
  // A persistent drop is not a spike.
  const std::vector<double> h{28, 28, 14, 14, 14, 14};
  const auto cleaned = flatten_spikes(h, config);
  EXPECT_DOUBLE_EQ(cleaned[3], 14.0);
  EXPECT_DOUBLE_EQ(cleaned[2], 14.0);
}

TEST(Guards, WindowAfterHopDropsStaleRegime) {
  GuardConfig config;
  config.min_window = 3;
  std::vector<double> h{30, 30, 30, 30, 12, 12, 12, 12};
  const auto windowed = window_after_hop(h, config);
  ASSERT_EQ(windowed.size(), 4u);
  for (double v : windowed) EXPECT_DOUBLE_EQ(v, 12.0);
}

TEST(Guards, WindowKeepsMinimumPoints) {
  GuardConfig config;
  config.min_window = 6;
  std::vector<double> h{30, 30, 30, 30, 30, 30, 30, 12};
  const auto windowed = window_after_hop(h, config);
  EXPECT_EQ(windowed.size(), 6u);
}

TEST(Guards, OutputClampingAndStepLimit) {
  GuardConfig config;
  config.max_step = 3.0;
  config.max_instances = 32.0;
  config.steepness_damping = 1.0;            // isolate clamping
  config.mispredict_reset_threshold = 100.0;  // disable the reset rule
  const auto out =
      apply_output_guards({40.0, 50.0, -10.0}, /*last_observed=*/30.0, config);
  // Step limit from 30: at most 33 -> capped by capacity 32, then the
  // crash to -10 is limited to -3/interval and floored at 0.
  EXPECT_DOUBLE_EQ(out[0], 32.0);
  EXPECT_DOUBLE_EQ(out[1], 32.0);
  EXPECT_DOUBLE_EQ(out[2], 29.0);
}

TEST(Guards, SteepnessDampingShrinksSlopes) {
  GuardConfig config;
  config.max_step = 100.0;
  config.mispredict_reset_threshold = 100.0;
  config.steepness_damping = 0.5;
  const auto out = apply_output_guards({20.0, 20.0}, 10.0, config);
  EXPECT_DOUBLE_EQ(out[0], 15.0);   // 10 + 10*0.5
  EXPECT_DOUBLE_EQ(out[1], 12.5);   // 10 + 10*0.25
}

TEST(Guards, MispredictResetFallsBackToNaive) {
  GuardConfig config;
  config.mispredict_reset_threshold = 5.0;
  const auto out = apply_output_guards({90.0, 95.0}, 20.0, config);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 20.0);
}

TEST(GuardedPredictor, StaysWithinBounds) {
  auto predictor = make_parcae_predictor(32.0);
  const SpotTrace trace = canonical_segment(TraceSegment::kLowAvailDense);
  const auto series = trace.availability_series_d();
  for (std::size_t t = 12; t + 12 < series.size(); ++t) {
    const auto f = predictor->forecast(
        std::span<const double>(series).subspan(t - 12, 12), 12);
    for (double v : f) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 32.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Evaluation harness (Figure 5a shape).

class PredictorEvalTest : public ::testing::TestWithParam<TraceSegment> {};

INSTANTIATE_TEST_SUITE_P(Segments, PredictorEvalTest,
                         ::testing::Values(TraceSegment::kHighAvailDense,
                                           TraceSegment::kHighAvailSparse,
                                           TraceSegment::kLowAvailDense,
                                           TraceSegment::kLowAvailSparse));

TEST_P(PredictorEvalTest, ErrorsAreSmallOnRealScaleTraces) {
  const auto series =
      canonical_segment(GetParam()).availability_series_d();
  auto arima = make_parcae_predictor(32.0);
  const auto eval = evaluate_predictor(*arima, series, 12, 12);
  EXPECT_GT(eval.origins, 10);
  // Availability varies by a few instances around ~15-30; relative L1
  // should stay well under 25%.
  EXPECT_LT(eval.normalized_l1, 0.25);
}

TEST(PredictorEval, ArimaBeatsNaiveOnDriftingAvailability) {
  // The regime that motivates ARIMA (Figure 5a): gradual capacity
  // drains and refills that last-value carry cannot extrapolate.
  const auto series = synthesize_drift_trace().availability_series_d();
  auto arima = make_parcae_predictor(32.0);
  const double arima_err =
      evaluate_predictor(*arima, series, 12, 12).normalized_l1;
  const double naive_err =
      evaluate_predictor(NaivePredictor{}, series, 12, 12).normalized_l1;
  EXPECT_LT(arima_err, naive_err);
}

TEST(PredictorEval, GuardedArimaCompetitiveWithBaselines) {
  // On the full-day trace, the guarded ARIMA should be at least as
  // good as the worst baselines and close to the best (Figure 5a has
  // ARIMA winning overall).
  const auto series = full_day_trace().availability_series_d();
  auto arima = make_parcae_predictor(32.0);
  const double arima_err =
      evaluate_predictor(*arima, series, 12, 12).normalized_l1;
  const double naive_err =
      evaluate_predictor(NaivePredictor{}, series, 12, 12).normalized_l1;
  const double holt_err =
      evaluate_predictor(HoltPredictor{}, series, 12, 12).normalized_l1;
  EXPECT_LT(arima_err, holt_err);
  EXPECT_LT(arima_err, naive_err * 1.2);
}

TEST(AdaptivePredictor, SelectsTrendModelOnCleanRamps) {
  auto adaptive = AdaptivePredictor::standard_pool(64.0);
  const auto ramp = linear_series(5.0, 0.5, 40);
  const auto f = adaptive->forecast(ramp, 4);
  // Whatever member won the backtest, the forecast must extrapolate
  // the ramp rather than hold the last value.
  EXPECT_GT(f[3], ramp.back() + 1.0);
}

TEST(AdaptivePredictor, SelectsCarryOnPlateaus) {
  auto adaptive = AdaptivePredictor::standard_pool(32.0);
  const auto flat = constant_series(20.0, 40);
  const auto f = adaptive->forecast(flat, 6);
  for (double v : f) EXPECT_NEAR(v, 20.0, 0.5);
}

TEST(AdaptivePredictor, NeverMuchWorseThanBestMemberOnRealTraces) {
  // The point of backtest selection: near-best accuracy per regime.
  for (const SpotTrace* trace :
       {new SpotTrace(canonical_segment(TraceSegment::kHighAvailDense)),
        new SpotTrace(synthesize_drift_trace())}) {
    const auto series = trace->availability_series_d();
    auto adaptive = AdaptivePredictor::standard_pool(32.0);
    const double adaptive_err =
        evaluate_predictor(*adaptive, series, 12, 12).normalized_l1;
    double best_member = 1e18;
    auto pool_arima = make_parcae_predictor(32.0);
    NaivePredictor naive;
    DriftPredictor drift;
    for (const AvailabilityPredictor* member :
         std::initializer_list<const AvailabilityPredictor*>{
             pool_arima.get(), &naive, &drift})
      best_member = std::min(
          best_member,
          evaluate_predictor(*member, series, 12, 12).normalized_l1);
    EXPECT_LT(adaptive_err, best_member * 1.35) << trace->name();
    delete trace;
  }
}

TEST(AdaptivePredictor, ShortHistoryFallsBackGracefully) {
  auto adaptive = AdaptivePredictor::standard_pool(32.0);
  const auto f = adaptive->forecast(std::vector<double>{7.0, 8.0}, 3);
  ASSERT_EQ(f.size(), 3u);
  for (double v : f) EXPECT_GT(v, 0.0);
}

TEST(PredictorEval, PredictedTrajectoryCoversSeries) {
  const auto series =
      canonical_segment(TraceSegment::kHighAvailDense).availability_series_d();
  auto arima = make_parcae_predictor(32.0);
  const auto traj = predicted_trajectory(*arima, series, 12, 12, 4);
  EXPECT_EQ(traj.size(), series.size());
  // The first `history` points echo the truth.
  for (int i = 0; i < 12; ++i) EXPECT_DOUBLE_EQ(traj[i], series[i]);
}

}  // namespace
}  // namespace parcae
