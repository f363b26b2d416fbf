#include "migration/planner.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace parcae {

const char* migration_kind_name(MigrationKind kind) {
  switch (kind) {
    case MigrationKind::kNone:
      return "none";
    case MigrationKind::kIntraStage:
      return "intra-stage";
    case MigrationKind::kInterStage:
      return "inter-stage";
    case MigrationKind::kPipeline:
      return "pipeline";
    case MigrationKind::kRollback:
      return "rollback";
    case MigrationKind::kSuspend:
      return "suspend";
  }
  return "?";
}

std::string MigrationPlan::to_string() const {
  std::string s = migration_kind_name(kind);
  s.append(" ").append(from.to_string()).append("->").append(to.to_string());
  if (inter_stage_moves > 0)
    s.append(" moves=").append(std::to_string(inter_stage_moves));
  s.append(" stall=").append(std::to_string(stall_s())).append("s");
  return s;
}

int ClusterSnapshot::min_alive_stage() const {
  if (alive_per_stage.empty()) return 0;
  return *std::min_element(alive_per_stage.begin(), alive_per_stage.end());
}

MigrationPlan MigrationPlanner::plan(const ClusterSnapshot& snapshot,
                                     ParallelConfig target) const {
  MigrationPlan result = plan_impl(snapshot, target);
  if (metrics_) {
    metrics_->counter("planner.plans").inc();
    metrics_->counter(std::string("planner.plans.") +
                      migration_kind_name(result.kind))
        .inc();
    if (result.kind != MigrationKind::kNone)
      metrics_->histogram("planner.stall_estimate_s").observe(result.stall_s());
  }
  return result;
}

MigrationPlan MigrationPlanner::plan_impl(const ClusterSnapshot& snapshot,
                                          ParallelConfig target) const {
  MigrationPlan plan;
  plan.from = snapshot.config;
  plan.to = target;

  if (!target.valid()) {
    plan.kind = MigrationKind::kSuspend;
    return plan;
  }
  assert(target.instances() <= snapshot.alive_total());

  const bool had_config = snapshot.config.valid();
  const int p = snapshot.config.pp;

  if (!had_config) {
    // (Re)starting from suspension: full state restore from ParcaePS.
    plan.kind = MigrationKind::kRollback;
    plan.cost = estimator_.checkpoint_rollback(target);
    return plan;
  }

  if (target.pp != p) {
    plan.kind = MigrationKind::kPipeline;
    plan.cost = estimator_.pipeline_migration(snapshot.config, target);
    // A wiped-out stage makes GPU-to-GPU re-sharding impossible for
    // that shard; the states come from ParcaePS instead.
    if (snapshot.min_alive_stage() == 0) {
      plan.kind = MigrationKind::kRollback;
      plan.cost = estimator_.checkpoint_rollback(target);
    }
    return plan;
  }

  // Same depth. A fully dead stage cannot be recovered from peers.
  if (snapshot.min_alive_stage() == 0) {
    plan.kind = MigrationKind::kRollback;
    plan.cost = estimator_.checkpoint_rollback(target);
    return plan;
  }

  // Count instances that must change stage to assemble target.dp
  // complete pipelines.
  int moves = 0;
  for (int a : snapshot.alive_per_stage) moves += std::max(0, target.dp - a);
  // Spare and newly allocated instances can also fill gaps, but they
  // too need a state transfer (they hold no stage states), so they are
  // already counted in `moves` via the deficit.

  const bool unchanged = target == snapshot.config &&
                         snapshot.min_alive_stage() >= target.dp &&
                         snapshot.newly_allocated == 0;
  if (unchanged) {
    plan.kind = MigrationKind::kNone;
    return plan;
  }

  if (moves == 0) {
    plan.kind = MigrationKind::kIntraStage;
    plan.cost = estimator_.intra_stage(target);
  } else {
    plan.kind = MigrationKind::kInterStage;
    plan.inter_stage_moves = moves;
    plan.cost = estimator_.inter_stage(target, moves);
  }
  plan.joining_instances = snapshot.newly_allocated;
  return plan;
}

ParallelConfig adapt_configuration(ParallelConfig desired, int available,
                                   int min_depth, int max_depth,
                                   int max_pipelines) {
  if (available <= 0 || min_depth <= 0) return kIdleConfig;
  max_depth = std::max(max_depth, min_depth);
  if (desired.valid() && desired.pp >= min_depth && desired.pp <= max_depth) {
    // Preserve depth; add or drop data-parallel pipelines (§8).
    const int d = std::min(available / desired.pp, max_pipelines);
    if (d >= 1) return ParallelConfig{d, desired.pp};
  }
  // Re-partition into the fewest stages that still fit (§8: "when
  // available spot instances cannot even formulate a single pipeline,
  // re-partition the pipeline into fewer stages" — the minimum depth
  // is the floor; fewer than that cannot hold the model).
  if (available >= min_depth) {
    const int p = min_depth;
    const int d = std::clamp(available / p, 1, max_pipelines);
    return ParallelConfig{d, p};
  }
  return kIdleConfig;  // suspend until new instances arrive
}

}  // namespace parcae
