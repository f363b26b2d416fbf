// Regenerates Figure 5: (a) normalized L1 forecast error of ARIMA vs
// the lightweight statistical baselines (H = 12), and (b) the
// ARIMA-predicted trajectory against the ground-truth trace (I = 4).
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "predict/adaptive.h"
#include "predict/arima.h"
#include "predict/evaluation.h"
#include "predict/guards.h"
#include "predict/predictor.h"

using namespace parcae;

int main() {
  bench::header("Figure 5a", "availability predictor comparison (H=12)");

  std::vector<std::unique_ptr<AvailabilityPredictor>> predictors;
  predictors.push_back(make_parcae_predictor(32.0));  // guarded ARIMA
  predictors.push_back(std::make_unique<NaivePredictor>());
  predictors.push_back(std::make_unique<MovingAveragePredictor>(8));
  predictors.push_back(std::make_unique<ExponentialSmoothingPredictor>(0.4));
  predictors.push_back(std::make_unique<HoltPredictor>());
  predictors.push_back(std::make_unique<LinearTrendPredictor>());
  predictors.push_back(std::make_unique<DriftPredictor>());
  {
    std::vector<std::unique_ptr<AvailabilityPredictor>> members;
    members.push_back(make_parcae_predictor(32.0));
    members.push_back(std::make_unique<NaivePredictor>());
    members.push_back(std::make_unique<MovingAveragePredictor>(8));
    predictors.push_back(
        std::make_unique<MedianEnsemblePredictor>(std::move(members)));
  }
  predictors.push_back(AdaptivePredictor::standard_pool(32.0));

  std::vector<std::string> header{"predictor"};
  for (const SpotTrace& trace : all_canonical_segments())
    header.push_back(trace.name());
  header.push_back("12h trace");
  header.push_back("drift trace");
  TextTable table(std::move(header));

  const SpotTrace day = full_day_trace();
  const SpotTrace drift = synthesize_drift_trace();
  for (const auto& predictor : predictors) {
    auto& row = table.row().add(predictor->name());
    for (const SpotTrace& trace : all_canonical_segments()) {
      const auto eval = evaluate_predictor(
          *predictor, trace.availability_series_d(), 12, 12);
      row.add(eval.normalized_l1, 4);
    }
    for (const SpotTrace* t : {&day, &drift}) {
      const auto eval =
          evaluate_predictor(*predictor, t->availability_series_d(), 12, 12);
      row.add(eval.normalized_l1, 4);
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  bench::paper_note(
      "Figure 5a: ARIMA has the lowest normalized L1 distance among the "
      "lightweight predictors (lower is better)");
  std::printf(
      "note: the Table-1-matched segments are piecewise-constant with "
      "independent jumps, for which last-value carry is Bayes-optimal; on "
      "the drift trace (gradual drains/refills, the regime of the paper's "
      "collected trace) ARIMA leads as in the paper.\n");

  bench::header("Figure 5b", "ARIMA-predicted trace vs ground truth (I=4)");
  const SpotTrace trace = canonical_segment(TraceSegment::kHighAvailDense);
  const auto series = trace.availability_series_d();
  auto arima = make_parcae_predictor(32.0);
  const auto predicted = predicted_trajectory(*arima, series, 12, 12, 4);
  TextTable traj({"minute", "actual", "ARIMA"});
  for (std::size_t i = 0; i < series.size(); i += 2)
    traj.row()
        .add(static_cast<int>(i))
        .add(series[i], 0)
        .add(predicted[i], 1);
  std::printf("%s\n", traj.to_string().c_str());
  bench::paper_note(
      "Figure 5b: the ARIMA forecast faithfully follows the tendency of "
      "instance availability");
  return 0;
}
