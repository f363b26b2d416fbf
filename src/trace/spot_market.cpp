#include "trace/spot_market.h"

#include <algorithm>
#include <cmath>

namespace parcae {
namespace {

constexpr double kReversion = 0.08;   // OU pull toward the mean per interval
constexpr double kVolatility = 0.05;  // price noise per interval ($/h)
// Fraction of instances reclaimed per interval per 10% of price excess
// over the bid.
constexpr double kReclaimAggressiveness = 0.5;

}  // namespace

SpotMarketResult simulate_spot_market(const SpotMarketOptions& options,
                                      Rng& rng) {
  const auto intervals =
      static_cast<int>(options.duration_s / options.interval_s + 0.5);
  SpotMarketResult result;
  double price = kSpotMarketMeanPrice;
  int held = 0;
  std::vector<int> series;
  series.reserve(static_cast<std::size_t>(intervals));
  double paid_sum = 0.0;
  double paid_weight = 0.0;

  for (int i = 0; i < intervals; ++i) {
    // Ornstein-Uhlenbeck price step (floored at a small positive
    // price; spot prices never go to zero).
    price += kReversion * (kSpotMarketMeanPrice - price) +
             kVolatility * rng.normal();
    price = std::max(0.1 * kSpotMarketMeanPrice, price);
    result.price_per_interval.push_back(price);

    if (price > options.bid && held > 0) {
      // Reclaim: the further the price exceeds the bid, the more is
      // taken back.
      const double excess = (price - options.bid) / options.bid;
      const double fraction =
          std::min(1.0, kReclaimAggressiveness * excess / 0.1);
      int reclaim = static_cast<int>(std::ceil(fraction * held));
      reclaim = std::clamp(reclaim, 1, held);
      held -= reclaim;
    } else if (price <= options.bid && held < options.capacity) {
      const int granted = static_cast<int>(
          std::min<std::uint64_t>(rng.poisson(options.grant_rate),
                                  static_cast<std::uint64_t>(
                                      options.capacity - held)));
      held += granted;
    }
    series.push_back(held);
    paid_sum += price * held;
    paid_weight += held;
  }
  result.mean_paid_price = paid_weight > 0.0 ? paid_sum / paid_weight : 0.0;
  result.trace = SpotTrace::from_minute_series(
      "market-bid" + std::to_string(options.bid), series, options.capacity,
      options.interval_s);
  return result;
}

}  // namespace parcae
