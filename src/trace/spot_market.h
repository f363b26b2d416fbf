// Spot-market simulator: generates availability traces from a price
// process instead of replaying collected events.
//
// The market price follows an Ornstein-Uhlenbeck (mean-reverting)
// process; whenever it rises above the user's bid the provider
// reclaims capacity (more aggressively the larger the gap), and while
// it stays below the bid, pending capacity requests are granted. This
// produces the price-correlated availability dynamics the spot-market
// literature the paper cites (Tributary, HotSpot) describes, and lets
// benches study cost/robustness as a function of the bid.
#pragma once

#include <vector>

#include "common/rng.h"
#include "trace/spot_trace.h"

namespace parcae {

// Long-run spot price the market reverts to ($/h).
inline constexpr double kSpotMarketMeanPrice = 0.92;

struct SpotMarketOptions {
  int capacity = 32;           // instances we keep requesting
  double duration_s = 3600.0;
  double interval_s = 60.0;
  double bid = 1.10;           // our maximum price
  // Expected instances granted per interval while price <= bid.
  double grant_rate = 3.0;
};

struct SpotMarketResult {
  SpotTrace trace;
  std::vector<double> price_per_interval;  // $/h
  double mean_paid_price = 0.0;            // avg price while holding
};

SpotMarketResult simulate_spot_market(const SpotMarketOptions& options,
                                      Rng& rng);

}  // namespace parcae
