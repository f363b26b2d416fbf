#include "migration/preemption.h"

#include <algorithm>
#include <cassert>

#include "obs/profile_span.h"

namespace parcae {

PreemptionDraw sample_preemption(ParallelConfig config, int idle, int k,
                                 Rng& rng) {
  PreemptionDraw draw;
  PreemptionScratch scratch;
  sample_preemption(config, idle, k, rng, draw, scratch);
  return draw;
}

void sample_preemption(ParallelConfig config, int idle, int k, Rng& rng,
                       PreemptionDraw& draw, PreemptionScratch& scratch) {
  assert(config.valid());
  assert(idle >= 0);
  const int total = config.instances() + idle;
  draw.alive_per_stage.assign(static_cast<std::size_t>(config.pp), config.dp);
  draw.idle_alive = idle;
  const int kills = std::clamp(k, 0, total);
  // Instance index layout: [0, D*P) are grid cells (stage = i % P),
  // [D*P, D*P+idle) are spares. Uniform preemption over all of them.
  rng.sample_without_replacement(static_cast<std::size_t>(total),
                                 static_cast<std::size_t>(kills),
                                 scratch.pool, scratch.victims);
  for (std::size_t v : scratch.victims) {
    if (v < static_cast<std::size_t>(config.instances())) {
      const auto stage = static_cast<std::size_t>(
          v % static_cast<std::size_t>(config.pp));
      --draw.alive_per_stage[stage];
    } else {
      --draw.idle_alive;
    }
  }
  draw.min_alive_stage =
      *std::min_element(draw.alive_per_stage.begin(),
                        draw.alive_per_stage.end());
}

PreemptionSampler::PreemptionSampler(std::uint64_t seed, int trials)
    : rng_(seed), trials_(trials) {}

const PreemptionSummary& PreemptionSampler::summarize(ParallelConfig config,
                                                      int idle, int k) {
  const auto key = std::make_tuple(config.dp, config.pp, idle, k);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    obs::ProfileSpan span("mc_sampler.sample", metrics_);
    it = cache_.emplace(key, compute(config, idle, k)).first;
    if (metrics_) metrics_->counter("mc_sampler.samples").inc();
  } else if (metrics_) {
    metrics_->counter("mc_sampler.cache_hits").inc();
  }
  return it->second;
}

PreemptionSummary PreemptionSampler::compute(ParallelConfig config, int idle,
                                             int k) {
  PreemptionSummary s;
  s.intra_pipelines_prob.assign(static_cast<std::size_t>(config.dp) + 1, 0.0);
  s.stage_alive_prob.assign(static_cast<std::size_t>(config.dp) + 1, 0.0);
  if (k <= 0) {
    // No preemption: everything survives.
    s.intra_pipelines_prob[static_cast<std::size_t>(config.dp)] = 1.0;
    s.intra_support.push_back(config.dp);
    s.stage_alive_prob[static_cast<std::size_t>(config.dp)] = 1.0;
    return s;
  }
  // Batched trial evaluation: each draw tallies into integer
  // histograms (scratch reused across compute() calls — no per-trial
  // heap allocation), and the statistics are derived from the
  // histograms afterwards. Every statistic is an exact integer count,
  // so this is bit-identical to a per-trial double accumulation.
  const auto D = static_cast<std::size_t>(config.dp);
  batch_.min_alive_hist.assign(D + 1, 0);
  batch_.stage_alive_hist.assign(D + 1, 0);
  PreemptionDraw& draw = batch_.draw;
  for (int t = 0; t < trials_; ++t) {
    sample_preemption(config, idle, k, rng_, draw, batch_.sample);
    ++batch_.min_alive_hist[static_cast<std::size_t>(draw.min_alive_stage)];
    for (int a : draw.alive_per_stage)
      ++batch_.stage_alive_hist[static_cast<std::size_t>(a)];
  }
  const auto n = static_cast<double>(trials_);
  for (std::size_t d = 0; d <= D; ++d) {
    const std::int64_t c = batch_.min_alive_hist[d];
    s.intra_pipelines_prob[d] = static_cast<double>(c) / n;
    if (c > 0) s.intra_support.push_back(static_cast<int>(d));
  }
  s.stage_wipeout_prob = static_cast<double>(batch_.min_alive_hist[0]) / n;
  for (std::size_t a = 0; a <= D; ++a)
    s.stage_alive_prob[a] = static_cast<double>(batch_.stage_alive_hist[a]) /
                            (n * static_cast<double>(config.pp));
  return s;
}

}  // namespace parcae
