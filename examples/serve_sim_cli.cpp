// Serving simulation CLI: run the SLO-aware goodput scheduler (or a
// baseline) on any model, availability trace, and arrival process.
//
//   serve_sim_cli [key=value ...]
//
// keys:
//   model=GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19
//   trace=HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>
//   system=proactive|oracle|reactive|static
//   arrival=poisson|mmpp|replay
//   rps=<float>            base request rate (requests per second)
//   burst=<float>          MMPP burst-state rate multiplier
//   diurnal=<float>        diurnal envelope amplitude (0 = flat)
//   replay_rps=<r0,r1,..>  arrival=replay per-interval rate series
//   slo_ms=<float>         latency SLO (default 4000)
//   max_batch=<int>        continuous-batching window per replica
//   replicas=<DxP>         system=static fixed config, e.g. replicas=8x2
//   intervals=<int>        scheduling intervals to run (default: trace)
//   lookahead=<int>        history=<int>      reoptimize=<int>
//   mc_trials=<int>        hysteresis=<float> seed=<int>
//   mode=tick|event        re-optimization trigger (tick re-solves
//                          every reoptimize= intervals; event re-solves
//                          only on preemptions/allocations with a
//                          debounce window, warm-started DP)
//   debounce_ms=<float>    event coalescing window for mode=event
//   timeline=0|1           print intervals where the config changed
//   metrics=0|1            print the metrics-registry snapshot
//   faults=<spec>          fault-injection spec (docs/robustness.md),
//                          e.g. faults=serve.admission:nth=100
//                          (the PARCAE_FAULTS env var is the fallback)
//   faults_seed=<int>      injector seed (default: seed ^ 0xfa017)
//   alerts=<spec>          SLO rules evaluated every interval
//                          (docs/observability.md grammar;
//                          alerts=default = built-in serving rule set)
//   alerts_jsonl=<file>    fired alerts as JSONL
//   metrics_csv=<file>     per-interval time series as CSV
//   requests_jsonl=<file>  per-request latency audit as JSONL
//                          (summarize with `trace_tool requests`)
//   trace_json=<file>      decision spans (step, predict, optimize,
//                          plan-migration) as a Chrome trace
//   events_jsonl=<file>    the scheduler's decision audit log as JSONL
//   export_port=<int>      serve the live registry as Prometheus text
//                          over TCP RPC (obs.metrics; 0 = ephemeral),
//                          with a self-scrape before exit
//
// Example:
//   serve_sim_cli model=GPT-2 trace=LA-SP system=proactive arrival=mmpp
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "core/slo.h"
#include "obs/profile_span.h"
#include "obs/timeseries.h"
#include "rpc/obs_service.h"
#include "rpc/rpc.h"
#include "serve/serving_sim.h"
#include "trace/trace_io.h"

using namespace parcae;
using namespace parcae::serve;

namespace {

void print_usage(FILE* out) {
  std::fprintf(
      out,
      "serve_sim_cli [key=value ...]\n"
      "\n"
      "Run the SLO-aware goodput scheduler (or a baseline) on any\n"
      "model, availability trace, and arrival process (docs/serving.md).\n"
      "\n"
      "keys:\n"
      "  model=GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19\n"
      "  trace=HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>\n"
      "  system=proactive|oracle|reactive|static\n"
      "  arrival=poisson|mmpp|replay\n"
      "  rps=<float>            base request rate (req/s)\n"
      "  burst=<float>          MMPP burst multiplier\n"
      "  diurnal=<float>        diurnal envelope amplitude\n"
      "  replay_rps=<r0,r1,..>  arrival=replay rate series\n"
      "  slo_ms=<float>         latency SLO (default 4000)\n"
      "  max_batch=<int>        continuous-batching window\n"
      "  replicas=<DxP>         system=static fixed config (e.g. 8x2)\n"
      "  intervals=<int>        intervals to run (default: whole trace)\n"
      "  lookahead=<int>        history=<int>      reoptimize=<int>\n"
      "  mc_trials=<int>        hysteresis=<float> seed=<int>\n"
      "  mode=tick|event        debounce_ms=<float>\n"
      "  timeline=0|1           metrics=0|1\n"
      "  faults=<spec>          faults_seed=<int>   (docs/robustness.md)\n"
      "  alerts=<spec>          alerts_jsonl=<file>\n"
      "  metrics_csv=<file>     requests_jsonl=<file>\n"
      "  trace_json=<file>      events_jsonl=<file>\n"
      "  export_port=<int>      live Prometheus export over TCP RPC\n"
      "\n"
      "example:\n"
      "  serve_sim_cli model=GPT-2 trace=LA-SP system=proactive "
      "arrival=mmpp\n");
}

// Every key main() reads: the ones print_usage() lists, and help.
constexpr std::string_view kKeys[] = {
    "model", "trace", "system", "arrival", "rps", "burst", "diurnal",
    "replay_rps", "slo_ms", "max_batch", "replicas", "intervals", "lookahead",
    "history", "reoptimize", "mc_trials", "hysteresis", "seed", "mode",
    "debounce_ms", "timeline", "metrics", "faults", "faults_seed", "alerts",
    "alerts_jsonl", "metrics_csv", "requests_jsonl", "trace_json",
    "events_jsonl", "export_port", "help", "h"};

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
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

  const std::uint64_t seed = std::stoull(get(args, "seed", "123"));

  ArrivalOptions aopt;
  const std::string arrival = get(args, "arrival", "poisson");
  if (arrival == "poisson") {
    aopt.kind = ArrivalKind::kPoisson;
  } else if (arrival == "mmpp") {
    aopt.kind = ArrivalKind::kMmpp;
  } else if (arrival == "replay") {
    aopt.kind = ArrivalKind::kReplay;
    std::string list = get(args, "replay_rps", "");
    if (list.empty()) {
      std::fprintf(stderr, "arrival=replay needs replay_rps=<r0,r1,..>\n");
      return 1;
    }
    for (std::size_t pos = 0; pos < list.size();) {
      const auto comma = list.find(',', pos);
      const std::string tok = list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (!tok.empty()) aopt.replay_rps.push_back(std::stod(tok));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  } else {
    std::fprintf(stderr, "arrival=%s: expected poisson|mmpp|replay\n",
                 arrival.c_str());
    return 1;
  }
  aopt.seed = seed ^ 0xa221ull;
  aopt.base_rps = std::stod(get(args, "rps", "60"));
  aopt.burst_multiplier = std::stod(get(args, "burst", "3"));
  aopt.diurnal_amplitude = std::stod(get(args, "diurnal", "0"));

  ServingSchedulerOptions sopt;
  const std::string system = get(args, "system", "proactive");
  if (system == "proactive") {
    sopt.mode = ServingMode::kProactive;
  } else if (system == "oracle") {
    sopt.mode = ServingMode::kOracle;
  } else if (system == "reactive") {
    sopt.mode = ServingMode::kReactive;
  } else if (system == "static") {
    sopt.mode = ServingMode::kStatic;
  } else {
    std::fprintf(stderr,
                 "system=%s: expected proactive|oracle|reactive|static\n",
                 system.c_str());
    return 1;
  }
  const std::string replicas = get(args, "replicas", "");
  if (!replicas.empty()) {
    const auto x = replicas.find('x');
    if (x == std::string::npos) {
      std::fprintf(stderr, "replicas=%s: expected DxP (e.g. 8x2)\n",
                   replicas.c_str());
      return 1;
    }
    sopt.static_config = ParallelConfig{std::stoi(replicas.substr(0, x)),
                                        std::stoi(replicas.substr(x + 1))};
  }
  sopt.lookahead = std::stoi(get(args, "lookahead", "12"));
  sopt.history = std::stoi(get(args, "history", "12"));
  sopt.reoptimize_every = std::stoi(get(args, "reoptimize", "1"));
  sopt.mc_trials = std::stoi(get(args, "mc_trials", "256"));
  sopt.depth_change_hysteresis = std::stod(get(args, "hysteresis", "0.15"));
  sopt.seed = seed;
  sopt.serving.slo_ms = std::stod(get(args, "slo_ms", "4000"));
  sopt.serving.max_batch = std::stoi(get(args, "max_batch", "8"));
  const std::string sched_mode = get(args, "mode", "tick");
  if (sched_mode != "tick" && sched_mode != "event") {
    std::fprintf(stderr, "mode=%s: expected tick or event\n",
                 sched_mode.c_str());
    return 1;
  }
  sopt.event_driven = sched_mode == "event";
  sopt.debounce_ms = std::stod(get(args, "debounce_ms", "250"));

  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series;
  obs::TraceWriter tracer;
  sopt.metrics = &registry;
  const std::string trace_json = get(args, "trace_json", "");
  const std::string events_jsonl = get(args, "events_jsonl", "");
  if (!trace_json.empty()) sopt.tracer = &tracer;

  ServingSimOptions sim;
  sim.metrics = &registry;
  const std::string metrics_csv = get(args, "metrics_csv", "");
  if (!metrics_csv.empty()) sim.timeseries = &series;
  sim.requests_jsonl_path = get(args, "requests_jsonl", "");

  FaultInjector faults(std::stoull(
      get(args, "faults_seed", std::to_string(seed ^ 0xfa017ull))));
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

  const std::string alerts_spec = get(args, "alerts", "");
  const std::string alerts_jsonl = get(args, "alerts_jsonl", "");
  std::unique_ptr<SloEngine> slo;
  if (!alerts_spec.empty()) {
    std::string error;
    const std::vector<SloRule> rules =
        alerts_spec == "default"
            ? SloEngine::default_serving_rules()
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

  const std::string export_port = get(args, "export_port", "");
  std::unique_ptr<rpc::Transport> export_transport;
  std::unique_ptr<rpc::RpcServer> export_server;
  std::unique_ptr<rpc::ObsService> export_service;
  if (!export_port.empty()) {
    export_transport = rpc::make_tcp_transport(std::stoi(export_port));
    export_server = std::make_unique<rpc::RpcServer>(*export_transport);
    export_service = std::make_unique<rpc::ObsService>(registry);
    if (sim.faults != nullptr) export_service->set_fault_injector(sim.faults);
    export_service->bind(*export_server);
    export_server->start();
    std::printf("serving metrics on %s (rpc method \"obs.metrics\")\n",
                export_transport->address().c_str());
  }

  ArrivalGenerator arrivals(aopt);
  ServingScheduler scheduler(model, sopt, &arrivals,
                             sopt.mode == ServingMode::kOracle ? &trace
                                                               : nullptr);

  const int trace_intervals = static_cast<int>(
      trace.availability_series(sopt.interval_s).size());
  const int intervals =
      std::stoi(get(args, "intervals", std::to_string(trace_intervals)));

  const ServingSimResult r =
      simulate_serving(scheduler, arrivals, trace, intervals, sim);

  std::printf("system:           %s\n", r.policy.c_str());
  std::printf("model:            %s\n", model.name.c_str());
  if (sopt.event_driven)
    std::printf("scheduler mode:   event (debounce_ms=%.0f)\n",
                sopt.debounce_ms);
  else
    std::printf("scheduler mode:   tick (reoptimize every %d)\n",
                std::max(1, sopt.reoptimize_every));
  std::printf("trace:            %s (%.0f min, avg %.2f instances)\n",
              r.trace.c_str(), r.duration_s / 60.0,
              trace.stats().avg_instances);
  std::printf("arrival:          %s, base %.1f rps, SLO %.0f ms\n",
              arrival_kind_name(aopt.kind), aopt.base_rps,
              sopt.serving.slo_ms);
  std::printf(
      "requests:         %llu arrived, %llu served, %llu good, "
      "%llu dropped, %llu carried\n",
      static_cast<unsigned long long>(r.requests_arrived),
      static_cast<unsigned long long>(r.requests_served),
      static_cast<unsigned long long>(r.requests_good),
      static_cast<unsigned long long>(r.requests_dropped),
      static_cast<unsigned long long>(r.requests_carried));
  std::printf("goodput:          %.2f req/s, SLO attainment %.2f%%\n",
              r.goodput_rps, r.slo_attainment * 100.0);
  std::printf("latency:          p50 %.0f ms, p95 %.0f ms, p99 %.0f ms\n",
              r.p50_ms, r.p95_ms, r.p99_ms);
  std::printf(
      "cost:             $%.2f total, %.4f USD per 1M within-SLO "
      "requests\n",
      r.spot_cost_usd, r.cost_per_million_usd);
  std::printf("reconfigurations: %d\n", r.config_changes);
  if (faults.armed()) {
    std::printf("faults:           %llu injected\n",
                static_cast<unsigned long long>(faults.total_fired()));
    std::printf("  armed points:   %s\n", faults.describe().c_str());
  }

  if (get(args, "timeline", "0") == "1") {
    std::printf("\ntimeline (intervals with reconfigurations):\n");
    ParallelConfig prev = kIdleConfig;
    for (std::size_t i = 0; i < r.timeline.size(); ++i) {
      const auto& rec = r.timeline[i];
      if (i > 0 && rec.config == prev) continue;
      prev = rec.config;
      std::printf(
          "  t=%3zu min  N=%2d  %-6s  %.0f rps offered, p99 %.0f ms\n", i,
          rec.available,
          rec.config.valid() ? rec.config.to_string().c_str() : "-",
          rec.offered_rps, rec.p99_ms);
    }
  }

  if (get(args, "metrics", "0") == "1")
    std::printf("\nmetrics:\n%s", r.metrics.render().c_str());
  if (!metrics_csv.empty()) {
    if (series.write_csv(metrics_csv))
      std::printf("wrote %s (%zu intervals)\n", metrics_csv.c_str(),
                  series.rows());
    else
      std::fprintf(stderr, "cannot write %s\n", metrics_csv.c_str());
  }
  if (!sim.requests_jsonl_path.empty())
    std::printf("wrote %s (summarize: trace_tool requests %s)\n",
                sim.requests_jsonl_path.c_str(),
                sim.requests_jsonl_path.c_str());
  if (!trace_json.empty()) {
    if (tracer.write_file(trace_json))
      std::printf("wrote %s (%zu events)\n", trace_json.c_str(),
                  tracer.size());
    else
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
  }
  if (!events_jsonl.empty()) {
    const EventLog& events = scheduler.core().telemetry();
    FILE* f = std::fopen(events_jsonl.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", events_jsonl.c_str());
    } else {
      const std::string jsonl = events.to_jsonl();
      std::fwrite(jsonl.data(), 1, jsonl.size(), f);
      std::fclose(f);
      std::printf("wrote %s (%zu events)\n", events_jsonl.c_str(),
                  events.size());
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
    try {
      rpc::RpcClient scraper(*export_transport, export_transport->address());
      const std::string prom = rpc::ObsClient(scraper).scrape();
      std::printf("exporter self-scrape: %zu bytes of Prometheus text\n",
                  prom.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "exporter self-scrape failed: %s\n", e.what());
    }
  }
  return 0;
}
