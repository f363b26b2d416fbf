// Full simulation CLI: run any system on any model and trace with
// tunable policy options, optionally with a real-runtime pass on a
// prefix of the trace (transport=).
//
//   spot_sim_cli [key=value ...]
//
// Run `spot_sim_cli help` for the keys.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "baselines/bamboo_policy.h"
#include "baselines/checkfreq_policy.h"
#include "baselines/elastic_dp_policy.h"
#include "baselines/hybrid_policy.h"
#include "baselines/ondemand_policy.h"
#include "baselines/oobleck_policy.h"
#include "baselines/varuna_policy.h"
#include "cli.h"
#include "common/table.h"
#include "nn/dataset.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "trace/trace_io.h"

using namespace parcae;

namespace {

constexpr char kAbout[] =
    "spot_sim_cli [key=value ...]\n"
    "\n"
    "Run any system on any model and trace with tunable policy\n"
    "options (DESIGN.md has the per-experiment index).\n"
    "\n"
    "example:\n"
    "  spot_sim_cli model=GPT-3 trace=LA-SP system=varuna\n";

constexpr cli::Key kKeys[] = {
    {"model", "GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19",
     "model profile (default GPT-2)"},
    {"trace", "HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>",
     "availability trace (default HA-DP)"},
    {"system",
     "parcae|ideal|reactive|varuna|bamboo|oobleck|checkfreq|hybrid|"
     "elastic|ondemand",
     "system to run (default parcae)"},
    {"lookahead", "<int>", "intervals the DP plans ahead (default 12)"},
    {"history", "<int>", "intervals the predictor sees (default 12)"},
    {"reoptimize", "<int>", "mode=tick re-solve period (default 1)"},
    {"mc_trials", "<int>", "Monte-Carlo preemption trials (default 256)"},
    {"hysteresis", "<float>", "depth-change hysteresis (default 0.15)"},
    {"seed", "<int>", "policy seed (default 123)"},
    {"mode", "tick|event",
     "re-solve per interval, or on events (default tick)"},
    {"debounce_ms", "<float>", "mode=event coalescing window (default 250)"},
    {"timeline", "0|1", "print the per-interval event timeline (default 1)"},
    {"metrics", "0|1", "print the metrics-registry snapshot"},
    {"faults", "<spec>", "fault spec (docs/robustness.md), else PARCAE_FAULTS"},
    {"faults_seed", "<int>", "injector seed (default seed ^ 0xfa017)"},
    {"metrics_csv", "<file>", "per-interval time series as CSV"},
    {"trace_json", "<file>", "Chrome trace events (chrome://tracing)"},
    {"events_jsonl", "<file>", "scheduler EventLog as JSONL (Parcae modes)"},
    {"alerts", "<spec>|default",
     "SLO rules per interval (docs/observability.md)"},
    {"alerts_jsonl", "<file>", "fired alerts as JSONL"},
    {"export_port", "<int>",
     "serve the live registry over TCP RPC (0 = ephemeral)"},
    {"transport", "inproc|tcp",
     "real-runtime pass on a trace prefix (docs/rpc.md)"},
    {"rpc_port", "<int>", "TCP listen port for transport=tcp (0 = ephemeral)"},
    {"runtime_minutes", "<int>",
     "trace prefix the runtime pass replays (default 20)"},
    {"runtime_trace", "<prefix>",
     "write <prefix>.scheduler.json and <prefix>.hub.json"},
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kAbout, kKeys);

  ModelProfile model;
  try {
    model = model_by_name(args.get("model", "GPT-2"));
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown model\n");
    return 1;
  }

  const std::string trace_name = args.get("trace", "HA-DP");
  std::string trace_error;
  std::optional<SpotTrace> resolved = resolve_trace(trace_name, &trace_error);
  if (!resolved) {
    std::fprintf(stderr, "cannot resolve trace '%s': %s\n",
                 trace_name.c_str(), trace_error.c_str());
    return 1;
  }
  SpotTrace trace = std::move(*resolved);

  ParcaePolicyOptions popt;
  popt.lookahead = args.number("lookahead", 12);
  popt.history = args.number("history", 12);
  popt.reoptimize_every = args.number("reoptimize", 1);
  popt.mc_trials = args.number("mc_trials", 256);
  popt.depth_change_hysteresis = args.number("hysteresis", 0.15);
  popt.seed = args.number("seed", std::uint64_t{123});
  if (!cli::read_mode(args, popt.event_driven)) return 1;
  popt.debounce_ms = args.number("debounce_ms", 250.0);

  const std::string system = args.get("system", "parcae");
  std::unique_ptr<SpotTrainingPolicy> policy;
  SimulationOptions sim;
  sim.units_per_sample = model.tokens_per_sample;
  sim.record_timeline = args.get("timeline", "1") == "1";

  // Observability sinks shared by the policy's SchedulerCore and the
  // simulator so snapshots and spans land in one place.
  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  obs::TimeSeriesRecorder series;
  sim.metrics = &registry;
  if (!args.get("trace_json").empty()) sim.tracer = &tracer;
  if (!args.get("metrics_csv").empty()) sim.timeseries = &series;
  popt.metrics = &registry;
  popt.tracer = sim.tracer;

  // An armed injector drives the simulator's sim.unpredicted_preempt
  // point, and the runtime pass's points when transport= is set.
  FaultInjector faults;
  if (!cli::arm_faults(args, popt.seed ^ 0xfa017ull, faults)) return 1;
  if (faults.armed()) sim.faults = &faults;

  // SLO alerting: alerts= arms a rule engine the simulator evaluates
  // at the end of every interval. Rules over series columns need the
  // time-series recorder, so alerting switches it on even without
  // metrics_csv=.
  std::unique_ptr<SloEngine> slo;
  if (!cli::arm_alerts(args, SloEngine::default_rules(), slo)) return 1;
  if (slo != nullptr) {
    sim.slo = slo.get();
    sim.timeseries = &series;
  }

  // Live export: serve the shared registry for the whole run, so a
  // scraper can watch the simulation move.
  cli::Exporter exporter(
      args, [&registry] { return registry.snapshot(); }, sim.faults,
      "metrics");

  const ParcaePolicy* parcae_policy = nullptr;
  if (system == "parcae") {
    policy = std::make_unique<ParcaePolicy>(model, popt);
  } else if (system == "ideal") {
    popt.mode = PredictionMode::kOracle;
    policy = std::make_unique<ParcaePolicy>(model, popt, &trace);
  } else if (system == "reactive") {
    popt.mode = PredictionMode::kReactive;
    policy = std::make_unique<ParcaePolicy>(model, popt);
  } else if (system == "varuna") {
    policy = std::make_unique<VarunaPolicy>(model);
  } else if (system == "bamboo") {
    policy = std::make_unique<BambooPolicy>(model);
  } else if (system == "oobleck") {
    policy = std::make_unique<OobleckPolicy>(model);
  } else if (system == "checkfreq") {
    policy = std::make_unique<CheckFreqPolicy>(model);
  } else if (system == "hybrid") {
    policy = std::make_unique<HybridSpotPolicy>(model);
  } else if (system == "elastic") {
    policy = std::make_unique<ElasticDpPolicy>(model);
  } else if (system == "ondemand") {
    policy = std::make_unique<OnDemandPolicy>(model);
    sim.instances_are_ondemand = true;
    trace = flat_trace(32, trace.duration_s());
  } else {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    return 1;
  }
  if (system == "parcae" || system == "ideal" || system == "reactive")
    parcae_policy = static_cast<const ParcaePolicy*>(policy.get());

  const SimulationResult r = simulate(*policy, trace, sim);

  std::printf("system:           %s\n", r.policy.c_str());
  std::printf("model:            %s\n", model.name.c_str());
  if (parcae_policy != nullptr) {
    if (popt.event_driven)
      std::printf("scheduler mode:   event (debounce_ms=%.0f)\n",
                  popt.debounce_ms);
    else
      std::printf("scheduler mode:   tick (reoptimize every %d)\n",
                  std::max(1, popt.reoptimize_every));
  }
  std::printf("trace:            %s (%.0f min, avg %.2f instances)\n",
              r.trace.c_str(), r.duration_s / 60.0,
              trace.stats().avg_instances);
  std::printf("committed:        %s %ss (%s/s)\n",
              format_si(r.committed_units, 2).c_str(),
              model.sample_unit.c_str(),
              format_si(r.avg_unit_throughput, 2).c_str());
  std::printf("cost:             $%.2f total, %.4f USD per 1M %ss\n",
              r.total_cost_usd, r.cost_per_unit * 1e6,
              model.sample_unit.c_str());
  std::printf(
      "GPU hours:        %.1f effective, %.1f redundant, %.1f handling, "
      "%.1f lost, %.1f unutilized\n",
      r.gpu_hours.effective, r.gpu_hours.redundant, r.gpu_hours.handling,
      r.gpu_hours.lost, r.gpu_hours.unutilized);
  if (faults.armed()) {
    const auto counter = [&r](const std::string& name) {
      const auto it = r.metrics.counters.find(name);
      return it == r.metrics.counters.end() ? 0.0 : it->second;
    };
    std::printf("faults:           %llu injected, %.0f unpredicted preempts\n",
                static_cast<unsigned long long>(faults.total_fired()),
                counter("fault.injected.sim.unpredicted_preempt"));
    std::printf("  armed points:   %s\n", faults.describe().c_str());
  }

  if (sim.record_timeline) {
    std::printf("\ntimeline (intervals with events):\n");
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
      const auto& rec = r.timeline[i];
      if (rec.note.empty()) continue;
      std::printf("  t=%3zu min  N=%2d  %-6s %s\n", i, rec.available,
                  rec.config.valid() ? rec.config.to_string().c_str() : "-",
                  rec.note.c_str());
    }
  }

  if (args.get("metrics", "0") == "1") {
    std::printf("\nmetrics:\n%s", r.metrics.render().c_str());
  }
  cli::write_metrics_csv(args, series);
  cli::write_trace_json(args, tracer);
  if (parcae_policy != nullptr)
    cli::write_events_jsonl(args, parcae_policy->telemetry());
  else if (!args.get("events_jsonl").empty())
    std::fprintf(stderr,
                 "events_jsonl: system '%s' keeps no EventLog "
                 "(Parcae modes only)\n",
                 system.c_str());

  cli::report_alerts(args, slo.get());
  exporter.self_scrape();

  // transport= asks for a real-runtime pass on top of the simulation:
  // replay a prefix of the same trace through the laptop-scale
  // SpotTrainingDriver with agents reaching the KV/PS hub over the
  // chosen transport. The faults= spec (if any) applies here too, so
  // `transport=tcp faults=rpc.drop:prob=0.05` is a chaos smoke.
  const std::string transport = args.get("transport");
  if (!transport.empty()) {
    const double minutes = args.number("runtime_minutes", 20.0);
    const SpotTrace prefix =
        trace.slice(0.0, minutes * 60.0, trace.name() + "-prefix");
    const auto dataset = nn::make_blobs(256, 16, 5, 0.5, 20240101);

    TrainingClusterOptions copt;
    copt.layer_sizes = {16, 48, 32, 5};
    copt.epoch_size = dataset.size();
    copt.batch_size = 64;
    copt.initial_instances = 0;  // the trace grants them
    copt.transport = transport;
    copt.rpc_port = args.number("rpc_port", 0);

    SpotDriverOptions dopt;
    dopt.iterations_per_interval = 6;
    dopt.event_driven = popt.event_driven;
    dopt.debounce_ms = popt.debounce_ms;
    if (faults.armed()) dopt.faults = &faults;
    // runtime_trace= attaches one writer per "process": scheduler
    // (decision spans + client-side rpc.call spans) and hub (server-
    // side rpc.handle spans). trace_tool merge fuses the two files
    // into a single timeline with cross-process flow arrows.
    const std::string runtime_trace = args.get("runtime_trace");
    obs::TraceWriter scheduler_tracer;
    obs::TraceWriter hub_tracer;
    if (!runtime_trace.empty()) {
      dopt.tracer = &scheduler_tracer;
      dopt.hub_tracer = &hub_tracer;
    }
    SpotTrainingDriver driver(copt, &dataset, dopt);
    std::printf("\nruntime pass (%s transport",
                driver.cluster().rpc_transport().kind());
    if (transport == "tcp")
      std::printf(" on %s", driver.cluster().rpc_address().c_str());
    std::printf(", %.0f min prefix):\n", minutes);
    const SpotDriverReport report = driver.run(prefix);
    std::printf(
        "  %d intervals, %lld iterations, final loss %.4f, "
        "%lld PS rollbacks, consistency %s\n",
        report.intervals, report.iterations,
        static_cast<double>(report.final_loss), report.ps_rollbacks,
        report.replicas_always_consistent ? "held" : "VIOLATED");
    const auto rpc_counter = [&report](const std::string& name) {
      const auto it = report.metrics.counters.find(name);
      return it == report.metrics.counters.end() ? 0.0 : it->second;
    };
    std::printf(
        "  rpc: %.0f requests (%.0f retries, %.0f timeouts), "
        "%.0f/%.0f frames sent/received, %.0f dropped\n",
        rpc_counter("rpc.requests"), rpc_counter("rpc.client.retries"),
        rpc_counter("rpc.timeouts"), rpc_counter("rpc.frames_sent"),
        rpc_counter("rpc.frames_received"), rpc_counter("rpc.dropped"));
    if (!runtime_trace.empty()) {
      const std::string scheduler_path = runtime_trace + ".scheduler.json";
      const std::string hub_path = runtime_trace + ".hub.json";
      bool wrote = scheduler_tracer.write_file(scheduler_path);
      wrote = hub_tracer.write_file(hub_path) && wrote;
      if (wrote)
        std::printf(
            "  wrote %s (%zu events) + %s (%zu events); fuse with\n"
            "    trace_tool merge merged.json %s %s\n",
            scheduler_path.c_str(), scheduler_tracer.size(),
            hub_path.c_str(), hub_tracer.size(), scheduler_path.c_str(),
            hub_path.c_str());
      else
        std::fprintf(stderr, "cannot write %s / %s\n",
                     scheduler_path.c_str(), hub_path.c_str());
    }
  }
  return 0;
}
