// Migration planner (§6.2): chooses among intra-stage, inter-stage,
// and pipeline migration to move from the current (possibly damaged)
// configuration to a target configuration, and estimates the stall.
//
// Strategy selection follows §7.2: a pipeline-depth change forces
// pipeline migration; otherwise the planner recovers as many pipelines
// as possible with intra-stage moves and uses inter-stage transfers
// only for the remainder, picking the cheaper applicable option.
#pragma once

#include <string>
#include <vector>

#include "migration/cost_model.h"
#include "migration/preemption.h"
#include "parallel/parallel_config.h"

namespace parcae {

namespace obs {
class MetricsRegistry;
}  // namespace obs

enum class MigrationKind {
  kNone,         // same config, nothing lost
  kIntraStage,   // routing-only recovery
  kInterStage,   // some instances load a different stage's states
  kPipeline,     // re-partition to a new depth
  kRollback,     // a stage was wiped out: restore from ParcaePS
  kSuspend,      // not enough instances for even one pipeline
};

const char* migration_kind_name(MigrationKind kind);

struct MigrationPlan {
  MigrationKind kind = MigrationKind::kNone;
  ParallelConfig from;
  ParallelConfig to;
  int inter_stage_moves = 0;
  int joining_instances = 0;
  MigrationCostTerms cost;

  double stall_s() const { return cost.total(); }
  std::string to_string() const;
};

// State of the running job the planner decides over.
struct ClusterSnapshot {
  ParallelConfig config;             // configuration before the event
  std::vector<int> alive_per_stage;  // survivors per stage (size P)
  int idle_alive = 0;                // surviving spare instances
  int newly_allocated = 0;           // instances that just joined

  int alive_total() const {
    int n = idle_alive + newly_allocated;
    for (int a : alive_per_stage) n += a;
    return n;
  }
  int min_alive_stage() const;
};

class MigrationPlanner {
 public:
  // `metrics`, when given, receives per-kind plan counters
  // ("planner.plans.<kind>") and the histogram of estimated stalls
  // ("planner.stall_estimate_s").
  explicit MigrationPlanner(CostEstimator estimator,
                            obs::MetricsRegistry* metrics = nullptr)
      : estimator_(std::move(estimator)), metrics_(metrics) {}

  // Plans the transition from `snapshot` to `target`. `target` must
  // satisfy target.instances() <= snapshot.alive_total(); callers
  // (the §8 adaptation step) are responsible for choosing a feasible
  // target. A default-constructed (invalid) target means "suspend".
  MigrationPlan plan(const ClusterSnapshot& snapshot,
                     ParallelConfig target) const;

  const CostEstimator& estimator() const { return estimator_; }

 private:
  MigrationPlan plan_impl(const ClusterSnapshot& snapshot,
                          ParallelConfig target) const;

  CostEstimator estimator_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

// The §8 parallelization-adaptation step: adjusts a desired target to
// the actually available instance count, preserving pipeline depth
// when possible (add/drop pipelines), re-partitioning to the minimum
// feasible depth when not, suspending when even that is impossible.
// `min_depth`/`max_depth` come from the memory model; `max_pipelines`
// caps D at mini_batch/micro_batch.
ParallelConfig adapt_configuration(ParallelConfig desired, int available,
                                   int min_depth, int max_depth,
                                   int max_pipelines);

}  // namespace parcae
