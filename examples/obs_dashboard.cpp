// Observability dashboard: run Parcae over a trace with every sink
// attached and drop the artifacts a real operator would want.
//
//   obs_dashboard [trace] [outdir]
//
// Writes into outdir (default "."):
//   run.trace.json  Chrome trace events — load in chrome://tracing or
//                   https://ui.perfetto.dev to see predict / optimize /
//                   plan-migration / execute-interval spans per interval
//   metrics.csv     per-interval time series (one row per scheduling
//                   interval: availability, live instances, liveput
//                   estimate, throughput, stall, cumulative samples, $)
//   events.jsonl    the scheduler's structured EventLog
//   metrics.prom    the final registry snapshot in Prometheus text
//                   exposition format (what the obs.metrics endpoint
//                   serves)
//   alerts.jsonl    SLO alerts (default rule set, src/core/slo.h)
//                   fired during the run
// and prints the metrics-registry snapshot as aligned tables and an
// alerts summary, followed by a §8 robustness section: a chaos run of
// the *real* training runtime under fault injection (PARCAE_FAULTS
// overrides the default chaos spec) with its recovery counters.
#include <cstdio>
#include <filesystem>
#include <string>

#include "cli.h"
#include "common/fault.h"
#include "common/table.h"
#include "core/slo.h"
#include "nn/dataset.h"
#include "obs/exporter.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "trace/trace_io.h"

using namespace parcae;

int main(int argc, char** argv) {
  const std::string trace_name = argc > 1 ? argv[1] : "HA-DP";
  const std::string outdir = argc > 2 ? argv[2] : ".";
  std::string trace_error;
  const auto trace = resolve_trace(trace_name, &trace_error);
  if (!trace) {
    std::fprintf(stderr, "cannot load '%s': %s\n", trace_name.c_str(),
                 trace_error.c_str());
    return 1;
  }

  const ModelProfile model = model_by_name("GPT-2");

  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  obs::TimeSeriesRecorder series;

  ParcaePolicyOptions popt;
  popt.metrics = &registry;
  popt.tracer = &tracer;
  ParcaePolicy policy(model, popt);

  SimulationOptions sim;
  sim.units_per_sample = model.tokens_per_sample;
  sim.record_timeline = false;
  sim.metrics = &registry;
  sim.tracer = &tracer;
  sim.timeseries = &series;

  SloEngine slo(SloEngine::default_rules());
  sim.slo = &slo;

  const SimulationResult r = simulate(policy, *trace, sim);

  std::printf("%s on %s: %s %ss committed (%s/s), $%.2f\n\n",
              r.policy.c_str(), r.trace.c_str(),
              format_si(r.committed_units, 2).c_str(),
              model.sample_unit.c_str(),
              format_si(r.avg_unit_throughput, 2).c_str(), r.total_cost_usd);
  std::printf("%s", r.metrics.render().c_str());

  std::error_code ec;
  std::filesystem::create_directories(outdir, ec);
  const std::string trace_path = outdir + "/run.trace.json";
  const std::string csv_path = outdir + "/metrics.csv";
  const std::string events_path = outdir + "/events.jsonl";
  bool ok = true;
  if (tracer.write_file(trace_path))
    std::printf("\nwrote %s (%zu events)\n", trace_path.c_str(),
                tracer.size());
  else
    ok = false;
  if (series.write_csv(csv_path))
    std::printf("wrote %s (%zu intervals x %zu columns)\n", csv_path.c_str(),
                series.rows(), series.columns().size());
  else
    ok = false;
  FILE* f = std::fopen(events_path.c_str(), "w");
  if (f != nullptr) {
    const std::string jsonl = policy.telemetry().to_jsonl();
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu events)\n", events_path.c_str(),
                policy.telemetry().size());
  } else {
    ok = false;
  }
  const std::string prom_path = outdir + "/metrics.prom";
  FILE* prom_file = std::fopen(prom_path.c_str(), "w");
  if (prom_file != nullptr) {
    const std::string prom = obs::to_prometheus(r.metrics);
    std::fwrite(prom.data(), 1, prom.size(), prom_file);
    std::fclose(prom_file);
    std::printf("wrote %s (%zu bytes)\n", prom_path.c_str(), prom.size());
  } else {
    ok = false;
  }
  const std::string alerts_path = outdir + "/alerts.jsonl";
  if (slo.write_jsonl(alerts_path))
    std::printf("wrote %s (%zu alerts)\n", alerts_path.c_str(),
                slo.alerts().size());
  else
    ok = false;
  const std::string alert_table = slo.render();
  if (alert_table.empty())
    std::printf("\nalerts: none fired (%zu default rules armed)\n",
                slo.rules().size());
  else
    std::printf("\nalerts (%zu fired):\n%s", slo.alerts().size(),
                alert_table.c_str());
  if (!ok) {
    std::fprintf(stderr, "cannot write artifacts into %s\n", outdir.c_str());
    return 1;
  }
  std::printf(
      "\nopen %s in chrome://tracing or https://ui.perfetto.dev to "
      "browse the run\n",
      trace_path.c_str());

  // -- §8 robustness: chaos-run the real runtime (SpotTrainingDriver)
  // on a churny synthetic trace with faults injected into training,
  // migration, ParcaePS and the KvStore, and show what it survived.
  const std::string chaos_spec = cli::env_fault_spec(
      "cluster.kill_mid_iteration:nth=5,max=2;"
      "cluster.kill_mid_migration:nth=3,max=1;"
      "ps.push:prob=0.05;kv.put:prob=0.02");
  FaultInjector faults(2026);
  std::string spec_error;
  if (!faults.arm_from_spec(chaos_spec, &spec_error)) {
    std::fprintf(stderr, "bad fault spec '%s': %s\n", chaos_spec.c_str(),
                 spec_error.c_str());
    return 1;
  }

  const auto ds = nn::make_blobs(256, 12, 4, 0.5, 9);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  Rng chaos_rng(12);
  SyntheticTraceOptions chaos_trace_options;
  chaos_trace_options.capacity = 8;
  chaos_trace_options.target_availability = 6.0;
  chaos_trace_options.preemption_events = 10;
  chaos_trace_options.duration_s = 30 * 60.0;
  const SpotTrace chaos_trace =
      synthesize_trace(chaos_trace_options, chaos_rng);
  SpotDriverOptions driver_options;
  driver_options.faults = &faults;
  SpotTrainingDriver driver(cluster, &ds, driver_options);
  const SpotDriverReport report = driver.run(chaos_trace);

  std::printf("\nrobustness (chaos run of the real runtime, spec \"%s\"):\n",
              chaos_spec.c_str());
  TextTable chaos({"counter", "value"});
  chaos.row().add("faults injected").add(report.faults_injected);
  chaos.row()
      .add("unpredicted kills survived")
      .add(report.unpredicted_kills_survived);
  chaos.row().add("mid-iteration kills").add(report.mid_iteration_kills);
  chaos.row().add("migrations aborted").add(report.migrations_aborted);
  chaos.row().add("ps push retries").add(report.ps_push_retries);
  chaos.row().add("ps refreshes").add(report.ps_refreshes);
  chaos.row().add("lease expirations").add(report.lease_expirations);
  chaos.row().add("paused intervals").add(report.paused_intervals);
  chaos.row().add("ps rollbacks").add(report.ps_rollbacks);
  std::printf("%s", chaos.to_string().c_str());
  std::printf("replicas stayed consistent: %s; final loss %.3f after %lld "
              "iterations\n",
              report.replicas_always_consistent ? "yes" : "NO",
              report.final_loss, report.iterations);

  // Every agent-side KV/PS operation in the chaos run crossed the RPC
  // layer (docs/rpc.md), so its counters are part of the dashboard.
  bool any_rpc = false;
  TextTable rpc({"rpc counter", "value"});
  for (const auto& [name, value] : report.metrics.counters) {
    if (name.rfind("rpc.", 0) != 0) continue;
    rpc.row().add(name).add(value);
    any_rpc = true;
  }
  if (any_rpc) {
    std::printf("\nrpc (%s transport):\n",
                driver.cluster().rpc_transport().kind());
    std::printf("%s", rpc.to_string().c_str());
  }
  return 0;
}
