// Pipeline-aware preemption mapping (§6.1) and the Monte-Carlo
// preemption sampler (§7.3).
//
// The availability predictor only says *how many* instances will be
// preempted; the impact depends on *where* they sit in the D x P
// topology. Parcae assumes every instance is equally likely to be
// preempted and samples preemption vectors v (Definition 1) to
// estimate, for each (D, P, #idle, #preempted):
//   - the distribution of pipelines recoverable by intra-stage
//     migration alone (min over stages of surviving replicas),
//   - the distribution of surviving replicas per stage, from which
//     callers derive the expected inter-stage moves to reach any
//     target number of pipelines,
//   - the probability that an entire stage is wiped out (the §8
//     fault-tolerance case that forces a ParcaePS rollback).
// Summaries are cached and resolved once per DP predecessor, so the
// DP's inner loop is plain arithmetic over them ("this sampling step
// can be done offline in advance").
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "parallel/parallel_config.h"

namespace parcae {

namespace obs {
class MetricsRegistry;
}  // namespace obs

// One sampled preemption outcome on a D x P grid with idle spares.
struct PreemptionDraw {
  std::vector<int> alive_per_stage;  // size P, each in [0, D]
  int idle_alive = 0;                // surviving spare instances
  int min_alive_stage = 0;           // min over alive_per_stage
};

// Samples `k` preemptions uniformly over D*P + idle instances.
PreemptionDraw sample_preemption(ParallelConfig config, int idle, int k,
                                 Rng& rng);

// Reusable buffers for the allocation-free sampling overload below
// (the Fisher-Yates pool and the victim list).
struct PreemptionScratch {
  std::vector<std::size_t> pool;
  std::vector<std::size_t> victims;
};

// Allocation-free overload: writes the draw into `draw` reusing its
// capacity. Consumes exactly the same RNG draws as the allocating
// overload — sequences and summaries are bit-identical per seed.
void sample_preemption(ParallelConfig config, int idle, int k, Rng& rng,
                       PreemptionDraw& draw, PreemptionScratch& scratch);

// Batched-trial tally scratch: per-trial draws land in integer
// histograms (min-alive-per-trial and per-(trial,stage) alive
// counts), and every summary statistic is derived from the
// histograms after the loop. All the statistics are exact integer
// sums (each trial contributes small integers), so the histogram
// derivation is bit-identical to a per-trial accumulation, at
// O(trials * P + D) tally cost.
struct PreemptionBatchScratch {
  PreemptionDraw draw;
  PreemptionScratch sample;
  std::vector<std::int64_t> min_alive_hist;    // size D + 1
  std::vector<std::int64_t> stage_alive_hist;  // size D + 1
};

struct PreemptionSummary {
  // P(intra-stage-recoverable pipelines == d), d in [0, D].
  std::vector<double> intra_pipelines_prob;
  // The d with intra_pipelines_prob[d] > 0, ascending.
  std::vector<int> intra_support;
  // P(a random stage has exactly `a` surviving replicas), a in [0, D]
  // (stages are exchangeable under uniform mapping). By linearity,
  // the expected inter-stage moves to reach d' pipelines, for any d',
  // are E[sum_s max(0, d' - a_s)] = P * sum_a P(a) * max(0, d' - a).
  std::vector<double> stage_alive_prob;
  // P(some stage lost all replicas) — requires checkpoint rollback.
  double stage_wipeout_prob = 0.0;
};

class PreemptionSampler {
 public:
  explicit PreemptionSampler(std::uint64_t seed = 7, int trials = 256);

  // Cached Monte-Carlo summary for (config, idle, k).
  const PreemptionSummary& summarize(ParallelConfig config, int idle, int k);

  // Optional metrics sink: cache-miss sampling latency lands in the
  // histogram "mc_sampler.sample.ms" (the paper's "offline" sampling
  // step), hits/misses in counters.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

 private:
  PreemptionSummary compute(ParallelConfig config, int idle, int k);

  Rng rng_;
  int trials_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Reused across compute() calls: no per-summary heap allocation
  // once the histograms reach their steady-state capacity.
  PreemptionBatchScratch batch_;
  std::map<std::tuple<int, int, int, int>, PreemptionSummary> cache_;
};

}  // namespace parcae
