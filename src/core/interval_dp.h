// IntervalDp: the look-ahead dynamic program behind every Parcae
// decision (§7), generic over the objective (core/objective.h).
//
// Given the predicted availability N_1..N_I and, optionally, a
// per-interval load (the serving objective's forecast request rate),
// it finds the configuration sequence maximizing (Equations 3-6)
//
//   F(i+1, c') = max_{c : c.instances() <= N_i}
//                  { F(i, c) + RATE(c', load_{i+1})
//                      * max(0, T - E_v[T_mig(c -> c' | v)] - SWITCH) }
//
// RATE and SWITCH come from the objective (training: THROUGHPUT and no
// switch term; serving: goodput and the outgoing replicas' drain,
// charged when c' replaces a different running c). The expectation
// over preemption mappings v is MigrationExpectation's.
//
// Performance layer (the paper's < 0.3 s/optimization budget,
// Figure 18b; docs/performance.md §7 for the scale story):
//   - per-interval candidate spaces (configs + the idle sentinel) come
//     from a bounded LRU keyed by N, each carrying its RNG-free
//     destination costs and its rate row for the last load it was
//     priced at; a column first resolves each live predecessor's MC
//     summary and switch stall (jj ascending), so the argmax scan
//     prices every edge as plain arithmetic over those two arrays and
//     the sampler's draws never depend on which edges it skips;
//   - the argmax scan is exact and pruned: an edge is worth at most
//     F + rate*T (rate >= 0, stall >= 0), so each candidate walks the
//     predecessors by F descending and stops once that bound falls
//     strictly below the best value so far. Equal values go to the
//     lower jj, so the argmax equals a first-wins scan in jj order
//     (docs/performance.md §3);
//   - consecutive optimize() calls warm-start from the previous value
//     table: a column i is recomputed only when its direct inputs
//     (predicted[i-1], predicted[i], load[i]; for i = 0 the live config
//     and n_now) changed or its predecessor column's values changed.
//     Reused columns are bit-identical to what a cold solve would
//     produce; invalidate() forces one. The tests diff the warm engine
//     against a twin that invalidates before every solve and against
//     a naive reference DP.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/objective.h"
#include "migration/cost_model.h"
#include "migration/migration_expectation.h"

namespace parcae {

namespace obs {
class MetricsRegistry;
}  // namespace obs

struct IntervalDpOptions {
  double interval_s = 60.0;  // T: prediction/optimization interval
  int mc_trials = 256;       // Monte-Carlo trials per (D,P,idle,k)
  std::uint64_t seed = 7;
  // Optional metrics sink (non-owning): DP run counters here, MC
  // sampling latency in the PreemptionSampler.
  obs::MetricsRegistry* metrics = nullptr;
};

struct IntervalPlan {
  // Configurations chosen for each predicted interval (size = I).
  std::vector<ParallelConfig> configs;
  // Expected value over the look-ahead window: committed samples for
  // training, requests served within the SLO for serving.
  double expected_value = 0.0;

  ParallelConfig next() const {
    return configs.empty() ? kIdleConfig : configs.front();
  }
};

class IntervalDp {
 public:
  // `objective` must outlive the engine.
  IntervalDp(const SchedulingObjective* objective, CostEstimator estimator,
             IntervalDpOptions options = {});
  IntervalDp(const IntervalDp&) = delete;
  IntervalDp& operator=(const IntervalDp&) = delete;

  // `current`: configuration running now (may be kIdleConfig when
  // suspended). `n_now`: instances available now. `predicted`: the
  // availability forecast N_1..N_I (one entry per future interval).
  // `load`: the objective's per-interval load, aligned with
  // `predicted`, or empty for objectives without one.
  IntervalPlan optimize(ParallelConfig current, int n_now,
                        const std::vector<int>& predicted,
                        const std::vector<double>& load = {});

  // Convenience: first step of the optimal plan.
  ParallelConfig advise(ParallelConfig current, int n_now,
                        const std::vector<int>& predicted,
                        const std::vector<double>& load = {});

  // Expected migration stall for transitioning c -> c' while k of the
  // N_from instances get preempted (exposed for tests and benches).
  double expected_migration_cost(ParallelConfig from, int n_from,
                                 ParallelConfig to, int preemptions) {
    return migration_.cost(from, n_from, to, preemptions);
  }
  // The full DP edge stall at `load`: the migration plus the
  // objective's switch stall when `to` replaces a different running
  // `from`.
  double edge_cost(ParallelConfig from, int n_from, ParallelConfig to,
                   int preemptions, double load = 0.0);

  // Drop the warm-started value table; the next optimize() re-solves
  // every column (a cold solve). Cheap; used on scheduler reset.
  void invalidate();

  // Incremental-DP telemetry (<dp_family>.states_reused /
  // .states_re_expanded): DP states carried over from the previous
  // solve vs. recomputed, cumulatively.
  std::uint64_t states_reused() const { return states_reused_; }
  std::uint64_t states_re_expanded() const { return states_re_expanded_; }

  // Edges the argmax scan priced, cumulatively; the bound skipped the
  // rest.
  std::uint64_t edges_priced() const { return edges_priced_; }

  // LRU bound on the per-N config-space cache (a churning fleet sees
  // many distinct N over a long run).
  static constexpr std::size_t kSpaceCacheCapacity = 64;
  // Config-space LRU telemetry (<dp_family>.space_cache_evictions).
  std::uint64_t space_cache_evictions() const {
    return space_cache_evictions_;
  }
  std::size_t space_cache_size() const { return space_cache_.size(); }

 private:
  // One interval's candidate space: the feasible configs for N (+ the
  // idle sentinel, always last), their destination costs, and the
  // objective's rate row for them at `rate_load` (repriced when a
  // column asks for another load).
  struct ConfigSpace {
    std::vector<ParallelConfig> configs;
    std::vector<DestinationCosts> dest;
    std::vector<double> rate;
    double rate_load = 0.0;
    std::size_t size() const { return configs.size(); }
  };
  // A live predecessor of a column, ready for the argmax scan: its
  // value, its config, and what every edge out of it reads.
  struct Predecessor {
    double value = 0.0;  // F(i-1, jj); 0 for the live config
    ParallelConfig from = kIdleConfig;
    int index = -1;  // jj (-1: the live config); breaks ties in value
    bool free_stay = false;  // nothing preempted: staying costs nothing
    const PreemptionSummary* summary = nullptr;  // null: no edge reads it
    // summary->stage_wipeout_prob, all a depth-change edge reads: the
    // scan prices the most common edge without chasing `summary`.
    double wipeout = 0.0;
    double switch_stall = 0.0;
  };
  using SpacePtr = std::shared_ptr<ConfigSpace>;

  // Previous solve, persisted for warm starts: its inputs and DP
  // tables. A reused column reads only best/parent; its space comes
  // from the LRU like any other, and an evicted space is rebuilt
  // identically (building one draws nothing from the sampler).
  struct WarmState {
    bool valid = false;
    ParallelConfig current = kIdleConfig;
    int n_now = 0;
    std::vector<int> predicted;
    std::vector<double> load;
    std::vector<std::vector<double>> best;
    std::vector<std::vector<int>> parent;
  };

  // Config space for N instances through the bounded LRU cache.
  SpacePtr resolve_space(int n);
  // Compute DP column i into best_out/parent_out: price the candidates
  // at load[i], resolve the live predecessors jj ascending, then run
  // the pruned argmax scan per candidate. prev_space/best_prev are null
  // for i == 0.
  void compute_column(std::size_t i, ParallelConfig current, int n_now,
                      const std::vector<int>& predicted,
                      const std::vector<double>& load,
                      const ConfigSpace* prev_space,
                      const std::vector<double>* best_prev,
                      ConfigSpace& cur_space, std::vector<double>& best_out,
                      std::vector<int>& parent_out);
  // Backtrack a plan out of per-column value/parent tables.
  IntervalPlan backtrack(const std::vector<SpacePtr>& spaces,
                         const std::vector<std::vector<double>>& best,
                         const std::vector<std::vector<int>>& parent) const;
  void flush_metrics();

  const SchedulingObjective* objective_;
  IntervalDpOptions options_;
  // Metric names in the objective's dp_family, precomputed.
  std::string name_runs_, name_states_reused_, name_states_re_expanded_,
      name_space_evictions_;
  MigrationExpectation migration_;

  // Config-space LRU: N -> space. front() of the list is the most
  // recently used N.
  struct SpaceEntry {
    SpacePtr space;
    std::list<int>::iterator lru;
  };
  std::unordered_map<int, SpaceEntry> space_cache_;
  std::list<int> space_lru_;
  std::uint64_t space_cache_evictions_ = 0;

  WarmState warm_;
  // Scratch reused across optimize() calls (allocation-free in steady
  // state): a column's live predecessors (in scan order) and the copy
  // of a recomputed column's previous values (for the convergence
  // cutoff).
  std::vector<Predecessor> preds_;
  std::vector<double> old_column_;
  std::uint64_t states_reused_ = 0;
  std::uint64_t states_re_expanded_ = 0;
  std::uint64_t edges_priced_ = 0;

  std::uint64_t flushed_states_reused_ = 0;
  std::uint64_t flushed_states_re_expanded_ = 0;
  std::uint64_t flushed_space_evictions_ = 0;
};

}  // namespace parcae
