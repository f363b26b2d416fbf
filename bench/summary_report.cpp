// One-shot summary: runs the full evaluation matrix (5 models x 4
// traces x 5 systems) and writes a Markdown report next to the text
// output — the whole §10.2 comparison as a single artifact.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "analysis/experiment.h"
#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/table.h"
#include "nn/dataset.h"
#include "runtime/spot_driver.h"

using namespace parcae;

int main() {
  bench::header("Summary", "full evaluation matrix");
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = run_matrix(MatrixOptions{});
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto summary = summarize(cells);

  TextTable table({"system", "cells", "no progress", "Parcae speedup",
                   "avg effective GPU-h %"});
  for (const auto& s : summary)
    table.row()
        .add(s.system)
        .add(s.cells)
        .add(s.cells_no_progress)
        .add(format_double(s.parcae_speedup_geomean, 2) + "x")
        .add(100.0 * s.avg_effective_share, 0);
  std::printf("%s\n", table.to_string().c_str());

  const std::string markdown = matrix_to_markdown(cells, summary);
  std::ofstream out("summary_report.md");
  out << markdown;
  std::printf("full matrix written to summary_report.md (%zu cells, "
              "%.1f s wall-clock)\n",
              cells.size(), wall_s);
  bench::paper_note(
      "aggregates §10.2: Parcae dominates every baseline in geometric "
      "mean and is the only system with zero no-progress cells");

  // §8 robustness: chaos-run the real runtime under fault injection
  // and report what it survived alongside the evaluation matrix.
  FaultInjector faults(2026);
  faults.arm_from_spec(
      "cluster.kill_mid_iteration:nth=5,max=2;"
      "cluster.kill_mid_migration:nth=3,max=1;"
      "ps.push:prob=0.05;kv.put:prob=0.02");
  const auto ds = nn::make_blobs(256, 12, 4, 0.5, 9);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  Rng chaos_rng(12);
  SyntheticTraceOptions chaos_trace;
  chaos_trace.capacity = 8;
  chaos_trace.target_availability = 6.0;
  chaos_trace.preemption_events = 10;
  chaos_trace.duration_s = 30 * 60.0;
  SpotDriverOptions driver_options;
  driver_options.faults = &faults;
  SpotTrainingDriver driver(cluster, &ds, driver_options);
  const SpotDriverReport chaos =
      driver.run(synthesize_trace(chaos_trace, chaos_rng));
  std::printf(
      "\nrobustness (chaos run): %lld faults injected; survived %lld "
      "unpredicted kills (%lld mid-iteration), %lld aborted migrations, "
      "%lld PS push retries, %lld lease expirations; replicas consistent: "
      "%s\n",
      chaos.faults_injected, chaos.unpredicted_kills_survived,
      chaos.mid_iteration_kills, chaos.migrations_aborted,
      chaos.ps_push_retries, chaos.lease_expirations,
      chaos.replicas_always_consistent ? "yes" : "NO");
  return 0;
}
