// Full simulation CLI: run any system on any model and trace with
// tunable policy options.
//
//   spot_sim_cli [key=value ...]
//
// keys:
//   model=GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19
//   trace=HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>
//   system=parcae|ideal|reactive|varuna|bamboo|oobleck|checkfreq|
//          hybrid|elastic|ondemand
//   lookahead=<int>        history=<int>      reoptimize=<int>
//   mc_trials=<int>        hysteresis=<float> seed=<int>
//   timeline=0|1
//   metrics=0|1            print the metrics-registry snapshot
//   faults=<spec>          fault-injection spec (docs/robustness.md),
//                          e.g. faults=sim.unpredicted_preempt:prob=0.1
//                          (the PARCAE_FAULTS env var is the fallback)
//   faults_seed=<int>      injector seed (default: seed ^ 0xfa017)
//   metrics_csv=<file>     per-interval time series as CSV
//   trace_json=<file>      Chrome trace events (chrome://tracing,
//                          https://ui.perfetto.dev)
//   events_jsonl=<file>    scheduler EventLog as JSONL (Parcae modes)
//   alerts=<spec>          SLO rules evaluated every interval
//                          (src/core/slo.h grammar; alerts=default
//                          loads the built-in rule set)
//   alerts_jsonl=<file>    fired alerts as JSONL
//   export_port=<int>      serve the live registry as Prometheus text
//                          over TCP RPC (method "obs.metrics";
//                          0 = ephemeral) for the whole run, with a
//                          self-scrape before exit
//   transport=inproc|tcp   also run the *real* runtime (laptop-scale
//                          SpotTrainingDriver) on a prefix of the
//                          selected trace, with agents reaching the
//                          KV/PS hub over this transport (docs/rpc.md),
//                          and print the driver report + rpc.* counters
//   rpc_port=<int>         TCP listen port for transport=tcp
//                          (0 = ephemeral)
//   runtime_minutes=<int>  trace prefix the runtime pass replays
//                          (default 20)
//   runtime_trace=<prefix> write the runtime pass's per-process trace
//                          files <prefix>.scheduler.json (decision +
//                          rpc.call spans) and <prefix>.hub.json
//                          (rpc.handle spans) — fuse with
//                          `trace_tool merge out.json <both files>`
//
// Example:
//   spot_sim_cli model=GPT-3 trace=LA-SP system=varuna
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/slo.h"
#include "rpc/obs_service.h"
#include "rpc/rpc.h"
#include "baselines/bamboo_policy.h"
#include "common/fault.h"
#include "baselines/checkfreq_policy.h"
#include "baselines/elastic_dp_policy.h"
#include "baselines/hybrid_policy.h"
#include "baselines/ondemand_policy.h"
#include "baselines/oobleck_policy.h"
#include "baselines/varuna_policy.h"
#include "common/table.h"
#include "nn/dataset.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "trace/trace_io.h"

using namespace parcae;

namespace {

void print_usage(FILE* out) {
  std::fprintf(
      out,
      "spot_sim_cli [key=value ...]\n"
      "\n"
      "Run any system on any model and trace with tunable policy\n"
      "options (DESIGN.md has the per-experiment index).\n"
      "\n"
      "keys:\n"
      "  model=GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19\n"
      "  trace=HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>\n"
      "  system=parcae|ideal|reactive|varuna|bamboo|oobleck|checkfreq|\n"
      "         hybrid|elastic|ondemand\n"
      "  lookahead=<int>        history=<int>      reoptimize=<int>\n"
      "  mc_trials=<int>        hysteresis=<float> seed=<int>\n"
      "  mode=tick|event        scheduler re-optimization trigger:\n"
      "                         tick (default) re-solves every\n"
      "                         reoptimize= intervals; event re-solves\n"
      "                         only on preemption notices / lease\n"
      "                         expiries / allocations (warm-started\n"
      "                         incremental DP, docs/performance.md)\n"
      "  debounce_ms=<float>    event coalescing window for mode=event\n"
      "                         (default 250)\n"
      "  timeline=0|1           print the per-interval event timeline\n"
      "  metrics=0|1            print the metrics-registry snapshot\n"
      "  faults=<spec>          fault-injection spec (docs/robustness.md),\n"
      "                         e.g. faults=sim.unpredicted_preempt:prob=0.1\n"
      "                         (the PARCAE_FAULTS env var is the fallback)\n"
      "  faults_seed=<int>      injector seed (default: seed ^ 0xfa017)\n"
      "  metrics_csv=<file>     per-interval time series as CSV\n"
      "  trace_json=<file>      Chrome trace events (chrome://tracing)\n"
      "  events_jsonl=<file>    scheduler EventLog as JSONL (Parcae modes)\n"
      "  alerts=<spec>          SLO rules evaluated every interval\n"
      "                         (docs/observability.md grammar;\n"
      "                         alerts=default = built-in rule set)\n"
      "  alerts_jsonl=<file>    fired alerts as JSONL\n"
      "  export_port=<int>      serve the live registry as Prometheus\n"
      "                         text over TCP RPC (obs.metrics method,\n"
      "                         0 = ephemeral) for the whole run\n"
      "  transport=inproc|tcp   also run the real runtime on a prefix of\n"
      "                         the trace over this transport (docs/rpc.md)\n"
      "  rpc_port=<int>         TCP listen port for transport=tcp\n"
      "                         (0 = ephemeral)\n"
      "  runtime_minutes=<int>  trace prefix the runtime pass replays\n"
      "                         (default 20)\n"
      "  runtime_trace=<prefix> write the runtime pass's per-process\n"
      "                         trace files (<prefix>.scheduler.json +\n"
      "                         <prefix>.hub.json; trace_tool merge)\n"
      "\n"
      "example:\n"
      "  spot_sim_cli model=GPT-3 trace=LA-SP system=varuna\n");
}

// Every key main() reads: the ones print_usage() lists, and help.
constexpr std::string_view kKeys[] = {
    "model", "trace", "system", "lookahead", "history", "reoptimize",
    "mc_trials", "hysteresis", "seed", "mode", "debounce_ms", "timeline",
    "metrics", "faults", "faults_seed", "metrics_csv", "trace_json",
    "events_jsonl", "alerts", "alerts_jsonl", "export_port", "transport",
    "rpc_port", "runtime_minutes", "runtime_trace", "help", "h"};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept GNU-style spellings (--seed=8) for every key.
    arg.erase(0, arg.find_first_not_of('-'));
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      args[arg] = "";
      continue;
    }
    args[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  return args;
}

bool known_key(std::string_view key) {
  return std::find(std::begin(kKeys), std::end(kKeys), key) !=
         std::end(kKeys);
}

std::string get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (args.count("help") != 0 || args.count("h") != 0) {
    print_usage(stdout);
    return 0;
  }
  // A misspelled or retired key would otherwise run on defaults.
  for (const auto& arg : args) {
    if (!known_key(arg.first)) {
      std::fprintf(stderr, "unknown key '%s'\n\n", arg.first.c_str());
      print_usage(stderr);
      return 2;
    }
  }

  ModelProfile model;
  try {
    model = model_by_name(get(args, "model", "GPT-2"));
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "unknown model\n");
    return 1;
  }

  const std::string trace_name = get(args, "trace", "HA-DP");
  SpotTrace trace;
  bool found = false;
  for (const SpotTrace& t : all_canonical_segments())
    if (t.name() == trace_name) {
      trace = t;
      found = true;
    }
  if (!found && trace_name == "full-day") {
    trace = full_day_trace();
    found = true;
  }
  if (!found) {
    std::string error;
    auto loaded = load_trace(trace_name, &error);
    if (!loaded) {
      std::fprintf(stderr, "cannot resolve trace '%s': %s\n",
                   trace_name.c_str(), error.c_str());
      return 1;
    }
    trace = *loaded;
  }

  ParcaePolicyOptions popt;
  popt.lookahead = std::stoi(get(args, "lookahead", "12"));
  popt.history = std::stoi(get(args, "history", "12"));
  popt.reoptimize_every = std::stoi(get(args, "reoptimize", "1"));
  popt.mc_trials = std::stoi(get(args, "mc_trials", "256"));
  popt.depth_change_hysteresis = std::stod(get(args, "hysteresis", "0.15"));
  popt.seed = std::stoull(get(args, "seed", "123"));
  const std::string sched_mode = get(args, "mode", "tick");
  if (sched_mode != "tick" && sched_mode != "event") {
    std::fprintf(stderr, "mode=%s: expected tick or event\n",
                 sched_mode.c_str());
    return 1;
  }
  popt.event_driven = sched_mode == "event";
  popt.debounce_ms = std::stod(get(args, "debounce_ms", "250"));

  const std::string system = get(args, "system", "parcae");
  std::unique_ptr<SpotTrainingPolicy> policy;
  SimulationOptions sim;
  sim.units_per_sample = model.tokens_per_sample;
  sim.record_timeline = get(args, "timeline", "1") == "1";

  // Observability sinks shared by the policy's SchedulerCore and the
  // simulator so snapshots and spans land in one place.
  obs::MetricsRegistry registry;
  obs::TraceWriter tracer;
  obs::TimeSeriesRecorder series;
  const std::string metrics_csv = get(args, "metrics_csv", "");
  const std::string trace_json = get(args, "trace_json", "");
  const std::string events_jsonl = get(args, "events_jsonl", "");
  sim.metrics = &registry;
  if (!trace_json.empty()) sim.tracer = &tracer;
  if (!metrics_csv.empty()) sim.timeseries = &series;
  popt.metrics = &registry;
  popt.tracer = sim.tracer;

  // Fault injection: the faults= key wins, the PARCAE_FAULTS env var
  // is the fallback. An armed injector drives the simulator's
  // sim.unpredicted_preempt point.
  FaultInjector faults(std::stoull(
      get(args, "faults_seed",
          std::to_string(std::stoull(get(args, "seed", "123")) ^ 0xfa017ull))));
  std::string fault_spec = get(args, "faults", "");
  if (fault_spec.empty()) {
    const char* env = std::getenv("PARCAE_FAULTS");
    if (env != nullptr) fault_spec = env;
  }
  if (!fault_spec.empty()) {
    std::string error;
    if (!faults.arm_from_spec(fault_spec, &error)) {
      std::fprintf(stderr, "bad fault spec '%s': %s\n", fault_spec.c_str(),
                   error.c_str());
      return 1;
    }
    sim.faults = &faults;
  }

  // SLO alerting: alerts= arms a rule engine the simulator evaluates
  // at the end of every interval. Rules over series columns need the
  // time-series recorder, so alerting switches it on even without
  // metrics_csv=.
  const std::string alerts_spec = get(args, "alerts", "");
  const std::string alerts_jsonl = get(args, "alerts_jsonl", "");
  std::unique_ptr<SloEngine> slo;
  if (!alerts_spec.empty()) {
    std::string error;
    const std::vector<SloRule> rules =
        alerts_spec == "default" ? SloEngine::default_rules()
                                 : SloEngine::parse_rules(alerts_spec, &error);
    if (rules.empty()) {
      std::fprintf(stderr, "bad alert spec '%s': %s\n", alerts_spec.c_str(),
                   error.c_str());
      return 1;
    }
    slo = std::make_unique<SloEngine>(rules);
    sim.slo = slo.get();
    sim.timeseries = &series;
  }

  // Live export: serve the shared registry over a TCP RPC endpoint for
  // the whole run — a scraper can watch the simulation move.
  const std::string export_port = get(args, "export_port", "");
  std::unique_ptr<rpc::Transport> export_transport;
  std::unique_ptr<rpc::RpcServer> export_server;
  std::unique_ptr<rpc::ObsService> export_service;
  if (!export_port.empty()) {
    export_transport = rpc::make_tcp_transport(std::stoi(export_port));
    export_server = std::make_unique<rpc::RpcServer>(*export_transport);
    export_service = std::make_unique<rpc::ObsService>(registry);
    if (sim.faults != nullptr)
      export_service->set_fault_injector(sim.faults);
    export_service->bind(*export_server);
    export_server->start();
    std::printf("serving metrics on %s (rpc method \"obs.metrics\")\n",
                export_transport->address().c_str());
  }

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
                counter("sim.unpredicted_preempts"));
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

  if (get(args, "metrics", "0") == "1") {
    std::printf("\nmetrics:\n%s", r.metrics.render().c_str());
  }
  if (!metrics_csv.empty()) {
    if (series.write_csv(metrics_csv))
      std::printf("wrote %s (%zu intervals)\n", metrics_csv.c_str(),
                  series.rows());
    else
      std::fprintf(stderr, "cannot write %s\n", metrics_csv.c_str());
  }
  if (!trace_json.empty()) {
    if (tracer.write_file(trace_json))
      std::printf("wrote %s (%zu events)\n", trace_json.c_str(),
                  tracer.size());
    else
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
  }
  if (!events_jsonl.empty()) {
    if (parcae_policy == nullptr) {
      std::fprintf(stderr,
                   "events_jsonl: system '%s' keeps no EventLog "
                   "(Parcae modes only)\n",
                   system.c_str());
    } else {
      FILE* f = std::fopen(events_jsonl.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", events_jsonl.c_str());
      } else {
        const std::string jsonl = parcae_policy->telemetry().to_jsonl();
        std::fwrite(jsonl.data(), 1, jsonl.size(), f);
        std::fclose(f);
        std::printf("wrote %s (%zu events)\n", events_jsonl.c_str(),
                    parcae_policy->telemetry().size());
      }
    }
  }

  if (slo != nullptr) {
    const std::string table = slo->render();
    if (table.empty())
      std::printf("\nalerts: none fired (%zu rules armed)\n",
                  slo->rules().size());
    else
      std::printf("\nalerts (%zu fired):\n%s", slo->alerts().size(),
                  table.c_str());
    if (!alerts_jsonl.empty()) {
      if (slo->write_jsonl(alerts_jsonl))
        std::printf("wrote %s (%zu alerts)\n", alerts_jsonl.c_str(),
                    slo->alerts().size());
      else
        std::fprintf(stderr, "cannot write %s\n", alerts_jsonl.c_str());
    }
  }

  if (export_server != nullptr) {
    // Prove the endpoint works end to end: scrape our own exporter
    // over the wire before shutting it down.
    try {
      rpc::RpcClient scraper(*export_transport,
                             export_transport->address());
      const std::string prom = rpc::ObsClient(scraper).scrape();
      std::printf("exporter self-scrape: %zu bytes of Prometheus text\n",
                  prom.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "exporter self-scrape failed: %s\n", e.what());
    }
  }

  // transport= asks for a real-runtime pass on top of the simulation:
  // replay a prefix of the same trace through the laptop-scale
  // SpotTrainingDriver with agents reaching the KV/PS hub over the
  // chosen transport. The faults= spec (if any) applies here too, so
  // `transport=tcp faults=rpc.drop:prob=0.05` is a chaos smoke.
  const std::string transport = get(args, "transport", "");
  if (!transport.empty()) {
    const double minutes = std::stod(get(args, "runtime_minutes", "20"));
    const SpotTrace prefix =
        trace.slice(0.0, minutes * 60.0, trace.name() + "-prefix");
    const auto dataset = nn::make_blobs(256, 16, 5, 0.5, 20240101);

    TrainingClusterOptions copt;
    copt.layer_sizes = {16, 48, 32, 5};
    copt.epoch_size = dataset.size();
    copt.batch_size = 64;
    copt.initial_instances = 0;  // the trace grants them
    copt.transport = transport;
    copt.rpc_port = std::stoi(get(args, "rpc_port", "0"));

    SpotDriverOptions dopt;
    dopt.iterations_per_interval = 6;
    dopt.event_driven = popt.event_driven;
    dopt.debounce_ms = popt.debounce_ms;
    if (faults.armed()) dopt.faults = &faults;
    // runtime_trace= attaches one writer per "process": scheduler
    // (decision spans + client-side rpc.call spans) and hub (server-
    // side rpc.handle spans). trace_tool merge fuses the two files
    // into a single timeline with cross-process flow arrows.
    const std::string runtime_trace = get(args, "runtime_trace", "");
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
