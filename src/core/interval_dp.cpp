#include "core/interval_dp.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/metrics.h"

namespace parcae {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double load_at(const std::vector<double>& load, std::size_t i) {
  return i < load.size() ? load[i] : 0.0;
}

}  // namespace

IntervalDp::IntervalDp(const SchedulingObjective* objective,
                       CostEstimator estimator, IntervalDpOptions options)
    : objective_(objective),
      options_(std::move(options)),
      migration_(std::move(estimator), options_.mc_trials, options_.seed) {
  const std::string family = objective_->traits().dp_family;
  name_runs_ = family + ".runs";
  name_states_reused_ = family + ".states_reused";
  name_states_re_expanded_ = family + ".states_re_expanded";
  name_space_evictions_ = family + ".space_cache_evictions";
  migration_.sampler().set_metrics(options_.metrics);
}

void IntervalDp::invalidate() { warm_ = WarmState{}; }

double IntervalDp::edge_cost(ParallelConfig from, int n_from,
                             ParallelConfig to, int preemptions,
                             double load) {
  double cost = migration_.cost(from, n_from, to, preemptions);
  if (from.valid() && to.valid() && to != from)
    cost += objective_->switch_cost(from, load);
  return cost;
}

IntervalDp::SpacePtr IntervalDp::resolve_space(int n) {
  const auto it = space_cache_.find(n);
  if (it != space_cache_.end()) {
    space_lru_.splice(space_lru_.begin(), space_lru_, it->second.lru);
    return it->second.space;
  }
  auto space = std::make_shared<ConfigSpace>();
  space->configs = objective_->candidates(n);
  for (const ParallelConfig to : space->configs)
    space->dest.push_back(migration_.destination(to));
  space->configs.push_back(kIdleConfig);
  space->dest.emplace_back();
  space_lru_.push_front(n);
  space_cache_.emplace(n, SpaceEntry{space, space_lru_.begin()});
  while (space_cache_.size() > kSpaceCacheCapacity) {
    space_cache_.erase(space_lru_.back());
    space_lru_.pop_back();
    ++space_cache_evictions_;
  }
  return space;
}

void IntervalDp::compute_column(std::size_t i, ParallelConfig current,
                                int n_now, const std::vector<int>& predicted,
                                const std::vector<double>& load,
                                const ConfigSpace* prev_space,
                                const std::vector<double>* best_prev,
                                ConfigSpace& cur_space,
                                std::vector<double>& best_out,
                                std::vector<int>& parent_out) {
  const double T = options_.interval_s;
  const int n_prev = i == 0 ? n_now : predicted[i - 1];
  const int k = std::max(0, n_prev - predicted[i]);
  const double load_i = load_at(load, i);
  const std::size_t C = cur_space.size();
  best_out.assign(C, kNegInf);
  parent_out.assign(C, -1);

  // Rates are closed-form and RNG-free; a space keeps the row for the
  // last load it was priced at (a training space is priced once).
  if (cur_space.rate.empty() || cur_space.rate_load != load_i) {
    cur_space.rate.resize(C);
    for (std::size_t j = 0; j < C; ++j) {
      cur_space.rate[j] = objective_->rate(cur_space.configs[j], load_i);
      assert(cur_space.rate[j] >= 0.0);  // the scan's bound needs it
    }
    cur_space.rate_load = load_i;
  }

  // Live predecessors, jj ascending (for i == 0 the live config alone),
  // each with what every edge out of it reads: the objective's switch
  // stall and, when some valid candidate's edge needs it, its MC
  // summary. A summary's key never depends on the candidate, so this
  // pass touches each one exactly where a full jj-ascending scan would
  // first touch it. Resolving them here, not lazily in the pruned scan,
  // keeps the sampler's draws independent of which edges it skips.
  const std::size_t valid = C - 1;  // the idle sentinel is last
  preds_.clear();
  auto add = [&](ParallelConfig from, double value, int index) {
    Predecessor p{value, from, index};
    if (from.valid()) {
      const auto src = MigrationExpectation::source(from, n_prev, k);
      p.free_stay = src.k == 0;
      // Every edge into a valid candidate reads the summary, except the
      // free stay on `from` itself (candidates are distinct).
      const bool read =
          p.free_stay
              ? valid > 1 || (valid == 1 && cur_space.configs[0] != from)
              : valid > 0;
      if (read) {
        p.summary = &migration_.sampler().summarize(from, src.idle, src.k);
        p.wipeout = p.summary->stage_wipeout_prob;
      }
      p.switch_stall = objective_->switch_cost(from, load_i);
    }
    preds_.push_back(p);
  };
  if (i == 0) {
    add(current, 0.0, -1);
  } else {
    const std::vector<double>& bp = *best_prev;
    for (std::size_t jj = 0; jj < prev_space->size(); ++jj)
      if (bp[jj] != kNegInf)
        add(prev_space->configs[jj], bp[jj], static_cast<int>(jj));
  }

  // Pruned scan: an edge is worth F + rate*max(0, T - stall), so
  // F + rate*T bounds it (rate >= 0, stall >= 0, and rounding is
  // monotone). Walking the predecessors by F descending, a candidate
  // stops at the first bound strictly below its best value: no later
  // edge can reach it. An equal bound may still tie, and a tie goes to
  // the lower jj, so the argmax is the same max over the same doubles
  // as a first-wins strict > scan in jj order.
  std::sort(preds_.begin(), preds_.end(),
            [](const Predecessor& a, const Predecessor& b) {
              return a.value != b.value ? a.value > b.value
                                        : a.index < b.index;
            });
  for (std::size_t j = 0; j < C; ++j) {
    const ParallelConfig to = cur_space.configs[j];
    const DestinationCosts& dest = cur_space.dest[j];
    const double rate = cur_space.rate[j];
    const double max_gain = rate * T;
    double best = kNegInf;
    int arg = -1;
    std::uint64_t priced = 0;
    for (const Predecessor& p : preds_) {
      if (p.value + max_gain < best) break;
      ++priced;
      double stall = 0.0;  // suspending costs nothing by itself
      if (to.valid()) {
        if (!p.from.valid()) {
          stall = dest.rollback;  // resuming: restore from ParcaePS
        } else {
          if (to.pp != p.from.pp)
            stall = MigrationExpectation::depth_change_cost(p.wipeout, dest);
          else if (!p.free_stay || to != p.from)
            stall = migration_.transition_cost(p.from, *p.summary, to, dest);
          if (p.switch_stall > 0.0 && to != p.from) stall += p.switch_stall;
        }
      }
      assert(stall >= 0.0);  // the bound needs it
      const double value = p.value + rate * std::max(0.0, T - stall);
      if (value > best || (value == best && p.index < arg)) {
        best = value;
        arg = p.index;
      }
    }
    best_out[j] = best;
    parent_out[j] = arg;
    edges_priced_ += priced;
  }
}

IntervalPlan IntervalDp::backtrack(
    const std::vector<SpacePtr>& spaces,
    const std::vector<std::vector<double>>& best,
    const std::vector<std::vector<int>>& parent) const {
  IntervalPlan plan;
  const std::size_t I = spaces.size();
  std::size_t arg = 0;
  for (std::size_t j = 1; j < spaces[I - 1]->size(); ++j)
    if (best[I - 1][j] > best[I - 1][arg]) arg = j;
  plan.expected_value = std::max(0.0, best[I - 1][arg]);
  plan.configs.assign(I, kIdleConfig);
  int cursor = static_cast<int>(arg);
  for (std::size_t i = I; i-- > 0;) {
    plan.configs[i] = spaces[i]->configs[static_cast<std::size_t>(cursor)];
    cursor = i > 0 ? parent[i][static_cast<std::size_t>(cursor)] : -1;
  }
  return plan;
}

IntervalPlan IntervalDp::optimize(ParallelConfig current, int n_now,
                                  const std::vector<int>& predicted,
                                  const std::vector<double>& load) {
  const std::size_t I = predicted.size();
  if (I == 0 || (!load.empty() && load.size() != I)) return IntervalPlan{};
  if (options_.metrics) options_.metrics->counter(name_runs_).inc();

  std::vector<SpacePtr> spaces(I);
  for (std::size_t i = 0; i < I; ++i) spaces[i] = resolve_space(predicted[i]);

  // Warm start: a column is reusable iff its direct inputs are
  // unchanged since the previous solve AND its predecessor column's
  // values are unchanged (docs/performance.md §7 for the induction
  // argument that this is bit-exact).
  const bool warm_ok = warm_.valid && warm_.predicted.size() == I;
  if (!warm_ok) {
    warm_.best.assign(I, {});
    warm_.parent.assign(I, {});
  }

  bool prev_changed = false;  // did column i-1's values change this solve?
  for (std::size_t i = 0; i < I; ++i) {
    const bool inputs_same =
        warm_ok && predicted[i] == warm_.predicted[i] &&
        load_at(load, i) == load_at(warm_.load, i) &&
        (i == 0 ? (current == warm_.current && n_now == warm_.n_now)
                : predicted[i - 1] == warm_.predicted[i - 1]);
    if (inputs_same && !prev_changed) {
      states_reused_ += spaces[i]->size();
      continue;  // column values carry over verbatim; prev_changed stays false
    }
    // Convergence cutoff: if the recomputed column comes out
    // value-identical to last solve's (same N, often the case a few
    // steps past a localized forecast change), the suffix can resume
    // reuse.
    const bool comparable = warm_ok && predicted[i] == warm_.predicted[i] &&
                            warm_.best[i].size() == spaces[i]->size();
    if (comparable) old_column_ = warm_.best[i];
    compute_column(i, current, n_now, predicted, load,
                   i == 0 ? nullptr : spaces[i - 1].get(),
                   i == 0 ? nullptr : &warm_.best[i - 1], *spaces[i],
                   warm_.best[i], warm_.parent[i]);
    states_re_expanded_ += spaces[i]->size();
    prev_changed = !comparable || warm_.best[i] != old_column_;
  }

  warm_.valid = true;
  warm_.current = current;
  warm_.n_now = n_now;
  warm_.predicted = predicted;
  warm_.load = load;

  flush_metrics();
  return backtrack(spaces, warm_.best, warm_.parent);
}

void IntervalDp::flush_metrics() {
  if (options_.metrics == nullptr) return;
  auto flush_delta = [this](const std::string& name, std::uint64_t now,
                            std::uint64_t& flushed) {
    if (now != flushed)
      options_.metrics->counter(name).add(static_cast<double>(now - flushed));
    flushed = now;
  };
  flush_delta(name_states_reused_, states_reused_, flushed_states_reused_);
  flush_delta(name_states_re_expanded_, states_re_expanded_,
              flushed_states_re_expanded_);
  flush_delta(name_space_evictions_, space_cache_evictions_,
              flushed_space_evictions_);
}

ParallelConfig IntervalDp::advise(ParallelConfig current, int n_now,
                                  const std::vector<int>& predicted,
                                  const std::vector<double>& load) {
  return optimize(current, n_now, predicted, load).next();
}

}  // namespace parcae
