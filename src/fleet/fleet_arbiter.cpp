#include "fleet/fleet_arbiter.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "parallel/throughput_model.h"

namespace parcae::fleet {

namespace {

double wall_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Upper concave hull of a non-decreasing value curve: the smallest
// concave majorant, computed as the convex-hull upper chain over the
// points (n, value[n]). Hull marginals are non-increasing in n, which
// is what makes one-instance-at-a-time greedy arbitration sound.
std::vector<double> concave_hull(const std::vector<double>& value) {
  const std::size_t n = value.size();
  std::vector<std::size_t> stack;  // hull vertex indices
  for (std::size_t i = 0; i < n; ++i) {
    while (stack.size() >= 2) {
      const std::size_t a = stack[stack.size() - 2];
      const std::size_t b = stack[stack.size() - 1];
      // Pop b when it lies on or below chord a->i (keeps the chain
      // concave).
      const double lhs = (value[b] - value[a]) * static_cast<double>(i - a);
      const double rhs = (value[i] - value[a]) * static_cast<double>(b - a);
      if (lhs <= rhs)
        stack.pop_back();
      else
        break;
    }
    stack.push_back(i);
  }
  std::vector<double> hull(n);
  for (std::size_t s = 0; s + 1 < stack.size(); ++s) {
    const std::size_t a = stack[s];
    const std::size_t b = stack[s + 1];
    for (std::size_t i = a; i <= b; ++i) {
      const double t = static_cast<double>(i - a) / static_cast<double>(b - a);
      hull[i] = value[a] + t * (value[b] - value[a]);
    }
  }
  if (stack.size() == 1) hull[stack.front()] = value[stack.front()];
  return hull;
}

}  // namespace

int JobValueTable::usable_max() const {
  for (int n = capacity(); n >= 1; --n)
    if (value[static_cast<std::size_t>(n)] >
        value[static_cast<std::size_t>(n) - 1])
      return n;
  return 0;
}

JobValueTable value_table_from_model(const ThroughputModel& model,
                                     int capacity) {
  JobValueTable table;
  table.value.assign(static_cast<std::size_t>(capacity) + 1, 0.0);
  for (int n = 1; n <= capacity; ++n) {
    const double t = model.throughput(model.best_config(n));
    // Monotone: more instances never hurt (the job can idle extras).
    table.value[static_cast<std::size_t>(n)] =
        std::max(t, table.value[static_cast<std::size_t>(n) - 1]);
  }
  const double reference = table.value.back();
  if (reference > 0.0)
    for (double& v : table.value) v /= reference;
  return table;
}

FleetArbiter::FleetArbiter(std::vector<ArbiterJobSpec> jobs,
                           FleetArbiterOptions options)
    : jobs_(std::move(jobs)), options_(options) {
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].job_id != static_cast<int>(j))
      throw std::invalid_argument(
          "FleetArbiter: job_ids must be dense and in order");
    if (jobs_[j].values.capacity() < options_.capacity)
      jobs_[j].values.value.resize(
          static_cast<std::size_t>(options_.capacity) + 1,
          jobs_[j].values.value.empty() ? 0.0 : jobs_[j].values.value.back());
    hull_.push_back(concave_hull(jobs_[j].values.value));
  }
  grants_.assign(jobs_.size(), 0);
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    ledger_.open(static_cast<int>(j), 0);
}

double FleetArbiter::marginal_gain(int job, int g) const {
  const auto& hull = hull_[static_cast<std::size_t>(job)];
  if (g < 0 || g + 1 >= static_cast<int>(hull.size())) return 0.0;
  return hull[static_cast<std::size_t>(g) + 1] -
         hull[static_cast<std::size_t>(g)];
}

double FleetArbiter::marginal_loss(int job, int g) const {
  const auto& hull = hull_[static_cast<std::size_t>(job)];
  if (g <= 0 || g >= static_cast<int>(hull.size())) return 0.0;
  return hull[static_cast<std::size_t>(g)] -
         hull[static_cast<std::size_t>(g) - 1];
}

std::vector<int> FleetArbiter::fair_shares(int pool_available) const {
  std::vector<int> share(jobs_.size(), 0);
  int remaining = std::min(pool_available, options_.capacity);
  while (remaining > 0) {
    int pick = -1;
    double best = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (share[j] >= jobs_[j].values.usable_max()) continue;
      const double normalized =
          static_cast<double>(share[j] + 1) / jobs_[j].weight;
      if (pick < 0 || normalized < best) {
        pick = static_cast<int>(j);
        best = normalized;
      }
    }
    if (pick < 0) break;  // every job capped; leave the rest unleased
    ++share[static_cast<std::size_t>(pick)];
    --remaining;
  }
  return share;
}

double FleetArbiter::weighted_value(const std::vector<int>& grants) const {
  double total = 0.0;
  for (std::size_t j = 0; j < jobs_.size() && j < grants.size(); ++j) {
    const auto& v = jobs_[j].values.value;
    const int g = std::clamp(grants[j], 0, static_cast<int>(v.size()) - 1);
    total += jobs_[j].weight * v[static_cast<std::size_t>(g)];
  }
  return total;
}

void FleetArbiter::revoke_one(int interval, LeaseChangeReason reason) {
  // Smallest marginal liveput loss per weight yields; ties go to the
  // job furthest over its weighted share, then to the higher id.
  int pick = -1;
  double best_loss = 0.0;
  double best_over = 0.0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (grants_[j] <= 0) continue;
    const double loss =
        marginal_loss(static_cast<int>(j), grants_[j]) / jobs_[j].weight;
    const double over = static_cast<double>(grants_[j]) / jobs_[j].weight;
    const bool better =
        pick < 0 || loss < best_loss ||
        (loss == best_loss &&
         (over > best_over ||
          (over == best_over && static_cast<int>(j) > pick)));
    if (better) {
      pick = static_cast<int>(j);
      best_loss = loss;
      best_over = over;
    }
  }
  if (pick < 0) return;
  --grants_[static_cast<std::size_t>(pick)];
  ledger_.record(pick, interval, -1, reason);
}

bool FleetArbiter::grant_one(int interval, LeaseChangeReason reason) {
  // Weighted max-min toward the fair share, capped at usable_max;
  // ties go to the higher marginal gain, then to the lower id.
  int pick = -1;
  double best_share = 0.0;
  double best_gain = 0.0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (grants_[j] >= jobs_[j].values.usable_max()) continue;
    const double share = static_cast<double>(grants_[j] + 1) / jobs_[j].weight;
    const double gain = marginal_gain(static_cast<int>(j), grants_[j]);
    const bool better =
        pick < 0 || share < best_share ||
        (share == best_share &&
         (gain > best_gain ||
          (gain == best_gain && static_cast<int>(j) < pick)));
    if (better) {
      pick = static_cast<int>(j);
      best_share = share;
      best_gain = gain;
    }
  }
  if (pick < 0) return false;
  ++grants_[static_cast<std::size_t>(pick)];
  ledger_.record(pick, interval, +1, reason);
  return true;
}

const std::vector<int>& FleetArbiter::rebalance(int interval,
                                                int pool_available) {
  const auto begin = std::chrono::steady_clock::now();
  obs::MetricsRegistry* metrics = options_.metrics;
  pool_available = std::clamp(pool_available, 0, options_.capacity);

  int held = 0;
  for (const int g : grants_) held += g;
  int delta = pool_available - held;

  int revoked = 0;
  if (delta < 0) {
    const auto shrink_begin = std::chrono::steady_clock::now();
    while (delta < 0) {
      revoke_one(interval, LeaseChangeReason::kPoolShrink);
      ++revoked;
      ++delta;
    }
    if (metrics) {
      metrics->counter("fleet.revocations").add(revoked);
      // Latency from pool-shrink observation to a complete revocation
      // decision — the arbiter-side share of preemption reaction time.
      metrics->histogram("fleet.revocation_latency_us")
          .observe(wall_us(shrink_begin));
    }
  }
  int granted = 0;
  while (delta > 0 && grant_one(interval, LeaseChangeReason::kPoolGrowth)) {
    ++granted;
    --delta;
  }
  if (metrics && granted > 0)
    metrics->counter("fleet.grants").add(granted);

  // Objective-improving swaps: move an instance from the cheapest
  // lease to the most valuable one while Σ w·value strictly improves
  // past the hysteresis margin. Hull concavity drives this to a fixed
  // point; the iteration bound is a backstop.
  int swaps = 0;
  for (int round = 0; round < 4 * options_.capacity; ++round) {
    int donor = -1, taker = -1;
    double donor_cost = 0.0, taker_gain = 0.0;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (grants_[j] > 0) {
        const double cost =
            jobs_[j].weight * marginal_loss(static_cast<int>(j), grants_[j]);
        if (donor < 0 || cost < donor_cost) {
          donor = static_cast<int>(j);
          donor_cost = cost;
        }
      }
      if (grants_[j] < jobs_[j].values.usable_max()) {
        const double gain =
            jobs_[j].weight * marginal_gain(static_cast<int>(j), grants_[j]);
        if (taker < 0 || gain > taker_gain) {
          taker = static_cast<int>(j);
          taker_gain = gain;
        }
      }
    }
    if (donor < 0 || taker < 0 || donor == taker) break;
    if (taker_gain <= donor_cost * (1.0 + options_.swap_margin)) break;
    --grants_[static_cast<std::size_t>(donor)];
    ++grants_[static_cast<std::size_t>(taker)];
    ledger_.record(donor, interval, -1, LeaseChangeReason::kValueSwap);
    ledger_.record(taker, interval, +1, LeaseChangeReason::kValueSwap);
    ++swaps;
  }

  if (metrics) {
    metrics->counter("fleet.rebalances").inc();
    if (swaps > 0) metrics->counter("fleet.swaps").add(swaps);
    metrics->gauge("fleet.pool_available").set(pool_available);
    int leased = 0;
    for (const int g : grants_) leased += g;
    metrics->gauge("fleet.unleased").set(pool_available - leased);
    for (std::size_t j = 0; j < jobs_.size(); ++j)
      metrics->gauge("fleet.job" + std::to_string(j) + ".share")
          .set(grants_[j]);
    metrics->histogram("fleet.decision_us").observe(wall_us(begin));
  }
  return grants_;
}

}  // namespace parcae::fleet
