// Exact preemption-mapping distributions: the closed forms the
// Monte-Carlo sampler of §7.3 approximates, kept as a test oracle
// (exact_preemption_test checks the sampler against them).
//
// With k preemptions drawn uniformly without replacement from a D x P
// grid plus `idle` spares, the per-stage kill counts follow a
// multivariate hypergeometric distribution with P groups of size D and
// one group of size `idle`. This header computes, exactly:
//   - P(every stage keeps >= d replicas)      (survival_at_least)
//   - P(intra-stage-recoverable pipelines = d) (intra_pipelines_pmf)
//   - P(some stage is wiped out)               (stage_wipeout_probability)
//   - E[sum_s max(0, d' - alive_s)]            (expected_inter_moves)
// Sizes here are tiny (<= 64 instances), so plain double-precision
// binomials are exact to rounding.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "parallel/parallel_config.h"

namespace parcae {

// C(n, k) as a double (0 for invalid arguments).
inline double binomial(int n, int k) {
  if (k < 0 || n < 0 || k > n) return 0.0;
  if (k == 0 || k == n) return 1.0;
  // lgamma keeps this exact to double rounding for our tiny sizes.
  return std::exp(std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                  std::lgamma(n - k + 1.0));
}

namespace exact_detail {

// Number of weighted ways to spread `kills` over the P stages with at
// most `cap` kills per stage: the coefficient-convolution
//   [x^kills] (sum_{j=0..cap} C(D, j) x^j)^P.
inline double ways_with_cap(int stages, int group, int cap, int kills) {
  if (kills < 0) return 0.0;
  std::vector<double> poly(static_cast<std::size_t>(kills) + 1, 0.0);
  poly[0] = 1.0;
  for (int s = 0; s < stages; ++s) {
    std::vector<double> next(poly.size(), 0.0);
    for (std::size_t have = 0; have < poly.size(); ++have) {
      if (poly[have] == 0.0) continue;
      for (int j = 0; j <= cap && have + static_cast<std::size_t>(j) <
                                      next.size();
           ++j)
        next[have + static_cast<std::size_t>(j)] +=
            poly[have] * binomial(group, j);
    }
    poly = std::move(next);
  }
  return poly[static_cast<std::size_t>(kills)];
}

}  // namespace exact_detail

// P(all stages keep at least `d` alive replicas) after `k` uniform
// preemptions on config.dp x config.pp + idle instances.
inline double survival_at_least(ParallelConfig config, int idle, int k,
                                int d) {
  assert(config.valid());
  const int D = config.dp;
  const int P = config.pp;
  const int total = D * P + idle;
  k = std::clamp(k, 0, total);
  if (d <= 0) return 1.0;
  if (d > D) return 0.0;
  const int cap = D - d;  // max kills a stage can absorb
  double numer = 0.0;
  for (int ki = 0; ki <= std::min(idle, k); ++ki)
    numer += binomial(idle, ki) *
             exact_detail::ways_with_cap(P, D, cap, k - ki);
  const double denom = binomial(total, k);
  return denom > 0.0 ? numer / denom : 1.0;
}

// PMF over d = 0..D of min_s alive_s (the pipelines recoverable by
// intra-stage migration alone).
inline std::vector<double> intra_pipelines_pmf(ParallelConfig config,
                                               int idle, int k) {
  std::vector<double> pmf(static_cast<std::size_t>(config.dp) + 1, 0.0);
  for (int d = 0; d <= config.dp; ++d) {
    const double at_least = survival_at_least(config, idle, k, d);
    const double above = survival_at_least(config, idle, k, d + 1);
    pmf[static_cast<std::size_t>(d)] = at_least - above;
  }
  return pmf;
}

// P(min_s alive_s == 0).
inline double stage_wipeout_probability(ParallelConfig config, int idle,
                                        int k) {
  return 1.0 - survival_at_least(config, idle, k, 1);
}

// E[sum_s max(0, d_target - alive_s)]: expected inter-stage moves to
// assemble d_target pipelines.
inline double expected_inter_moves(ParallelConfig config, int idle, int k,
                                   int d_target) {
  assert(config.valid());
  const int D = config.dp;
  const int total = config.instances() + idle;
  k = std::clamp(k, 0, total);
  // Stages are exchangeable; the kills of one stage are (univariate)
  // hypergeometric: P(j) = C(D, j) C(total - D, k - j) / C(total, k).
  const double denom = binomial(total, k);
  if (denom <= 0.0) return 0.0;
  double per_stage = 0.0;
  for (int j = 0; j <= std::min(D, k); ++j) {
    const double p = binomial(D, j) * binomial(total - D, k - j) / denom;
    const int alive = D - j;
    per_stage += p * std::max(0, d_target - alive);
  }
  return per_stage * config.pp;
}

}  // namespace parcae
