#include "predict/adaptive.h"

#include <algorithm>
#include <limits>

#include "common/stats.h"
#include "predict/arima.h"
#include "predict/guards.h"

namespace parcae {
namespace {

// Tail length scored in the backtest (clamped to half the window).
constexpr int kBacktestHorizon = 4;
// Number of rolling origins evaluated.
constexpr int kBacktestOrigins = 3;

}  // namespace

AdaptivePredictor::AdaptivePredictor(
    std::vector<std::unique_ptr<AvailabilityPredictor>> members)
    : members_(std::move(members)) {}

std::vector<double> AdaptivePredictor::forecast(
    std::span<const double> history, int horizon) const {
  if (members_.empty())
    return std::vector<double>(static_cast<std::size_t>(std::max(0, horizon)),
                               history.empty() ? 0.0 : history.back());
  const auto n = history.size();
  const int h =
      std::clamp<int>(kBacktestHorizon, 1, static_cast<int>(n) / 2);
  std::size_t best = 0;
  if (n >= static_cast<std::size_t>(2 * h + 2)) {
    double best_error = std::numeric_limits<double>::infinity();
    for (std::size_t m = 0; m < members_.size(); ++m) {
      double error = 0.0;
      int scored = 0;
      for (int origin = 0; origin < kBacktestOrigins; ++origin) {
        // Forecast from the window ending `h + origin` steps before
        // the end; score the h steps that followed.
        const std::size_t cut = static_cast<std::size_t>(h + origin);
        if (n <= cut + 2) break;
        const auto prefix = history.subspan(0, n - cut);
        const auto truth = history.subspan(n - cut, static_cast<std::size_t>(h));
        const std::vector<double> predicted =
            members_[m]->forecast(prefix, h);
        error += l1_distance(predicted, truth);
        ++scored;
      }
      if (scored == 0) continue;
      error /= scored;
      if (error < best_error) {
        best_error = error;
        best = m;
      }
    }
  }
  return members_[best]->forecast(history, horizon);
}

std::unique_ptr<AdaptivePredictor> AdaptivePredictor::standard_pool(
    double capacity) {
  std::vector<std::unique_ptr<AvailabilityPredictor>> members;
  members.push_back(make_parcae_predictor(capacity));
  members.push_back(std::make_unique<NaivePredictor>());
  members.push_back(std::make_unique<MovingAveragePredictor>(8));
  members.push_back(std::make_unique<ExponentialSmoothingPredictor>(0.4));
  members.push_back(std::make_unique<DriftPredictor>());
  return std::make_unique<AdaptivePredictor>(std::move(members));
}

}  // namespace parcae
