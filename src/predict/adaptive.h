// Adaptive predictor selection (§10.3 notes "there is still room to
// improve our availability predictor").
//
// Holds a pool of candidate predictors and, at every forecast, runs a
// rolling backtest *inside the provided history window*: each member
// forecasts from the window's prefix and is scored against the
// window's tail; the member with the lowest backtest error produces
// the real forecast. This adapts per-regime — last-value carry wins on
// choppy plateaus, trend models win on drains — without any state
// outside the history the caller already supplies.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "predict/predictor.h"

namespace parcae {

class AdaptivePredictor final : public AvailabilityPredictor {
 public:
  explicit AdaptivePredictor(
      std::vector<std::unique_ptr<AvailabilityPredictor>> members);

  std::vector<double> forecast(std::span<const double> history,
                               int horizon) const override;
  std::string name() const override { return "Adaptive"; }

  // A ready-made pool: guarded ARIMA, naive, moving average,
  // exponential smoothing, drift.
  static std::unique_ptr<AdaptivePredictor> standard_pool(
      double capacity = 32.0);

 private:
  std::vector<std::unique_ptr<AvailabilityPredictor>> members_;
};

}  // namespace parcae
