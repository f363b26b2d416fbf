// Serving simulation CLI: run the SLO-aware goodput scheduler (or a
// baseline) on any model, availability trace, and arrival process.
//
//   serve_sim_cli [key=value ...]
//
// Run `serve_sim_cli help` for the keys.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli.h"
#include "serve/serving_sim.h"
#include "trace/trace_io.h"

using namespace parcae;
using namespace parcae::serve;

namespace {

constexpr char kAbout[] =
    "serve_sim_cli [key=value ...]\n"
    "\n"
    "Run the SLO-aware goodput scheduler (or a baseline) on any\n"
    "model, availability trace, and arrival process (docs/serving.md).\n"
    "\n"
    "example:\n"
    "  serve_sim_cli model=GPT-2 trace=LA-SP system=proactive "
    "arrival=mmpp\n";

constexpr cli::Key kKeys[] = {
    {"model", "GPT-2|GPT-3|BERT-Large|ResNet-152|VGG-19",
     "model profile (default GPT-2)"},
    {"trace", "HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>",
     "availability trace (default HA-DP)"},
    {"system", "proactive|oracle|reactive|static",
     "scheduler (default proactive)"},
    {"arrival", "poisson|mmpp|replay", "arrival process (default poisson)"},
    {"rps", "<float>", "base request rate, req/s (default 60)"},
    {"burst", "<float>", "MMPP burst-state rate multiplier (default 3)"},
    {"diurnal", "<float>", "diurnal envelope amplitude (default 0)"},
    {"replay_rps", "<r0,r1,..>", "arrival=replay per-interval rate series"},
    {"slo_ms", "<float>", "latency SLO (default 4000)"},
    {"max_batch", "<int>", "continuous-batching window (default 8)"},
    {"replicas", "<DxP>", "system=static fixed config (e.g. 8x2)"},
    {"intervals", "<int>", "intervals to run (default: whole trace)"},
    {"lookahead", "<int>", "intervals the DP plans ahead (default 12)"},
    {"history", "<int>", "intervals the predictor sees (default 12)"},
    {"reoptimize", "<int>", "mode=tick re-solve period (default 1)"},
    {"mc_trials", "<int>", "Monte-Carlo preemption trials (default 256)"},
    {"hysteresis", "<float>", "depth-change hysteresis (default 0.15)"},
    {"seed", "<int>", "scheduler and arrival seed (default 123)"},
    {"mode", "tick|event",
     "re-solve per interval, or on events (default tick)"},
    {"debounce_ms", "<float>", "mode=event coalescing window (default 250)"},
    {"timeline", "0|1", "print intervals where the config changed"},
    {"metrics", "0|1", "print the metrics-registry snapshot"},
    {"faults", "<spec>", "fault spec (docs/robustness.md), else PARCAE_FAULTS"},
    {"faults_seed", "<int>", "injector seed (default seed ^ 0xfa017)"},
    {"alerts", "<spec>|default",
     "SLO rules per interval (default: serving set)"},
    {"alerts_jsonl", "<file>", "fired alerts as JSONL"},
    {"metrics_csv", "<file>", "per-interval time series as CSV"},
    {"requests_jsonl", "<file>",
     "per-request latency audit (trace_tool requests)"},
    {"trace_json", "<file>", "decision spans as a Chrome trace"},
    {"events_jsonl", "<file>", "the scheduler's decision audit log"},
    {"export_port", "<int>",
     "serve the live registry over TCP RPC (0 = ephemeral)"},
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
  const SpotTrace trace = std::move(*resolved);

  const std::uint64_t seed = args.number("seed", std::uint64_t{123});

  ArrivalOptions aopt;
  const std::string arrival = args.get("arrival", "poisson");
  if (arrival == "poisson") {
    aopt.kind = ArrivalKind::kPoisson;
  } else if (arrival == "mmpp") {
    aopt.kind = ArrivalKind::kMmpp;
  } else if (arrival == "replay") {
    aopt.kind = ArrivalKind::kReplay;
    if (args.get("replay_rps").empty()) {
      std::fprintf(stderr, "arrival=replay needs replay_rps=<r0,r1,..>\n");
      return 1;
    }
    aopt.replay_rps = args.numbers<double>("replay_rps", ',');
  } else {
    std::fprintf(stderr, "arrival=%s: expected poisson|mmpp|replay\n",
                 arrival.c_str());
    return 1;
  }
  aopt.seed = seed ^ 0xa221ull;
  aopt.base_rps = args.number("rps", 60.0);
  aopt.burst_multiplier = args.number("burst", 3.0);
  aopt.diurnal_amplitude = args.number("diurnal", 0.0);

  ServingSchedulerOptions sopt;
  const std::string system = args.get("system", "proactive");
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
  const std::string replicas = args.get("replicas");
  if (!replicas.empty()) {
    const std::vector<int> dp_pp = args.numbers<int>("replicas", 'x');
    if (dp_pp.size() != 2) {
      std::fprintf(stderr, "replicas=%s: expected DxP (e.g. 8x2)\n",
                   replicas.c_str());
      return 1;
    }
    sopt.static_config = ParallelConfig{dp_pp[0], dp_pp[1]};
  }
  sopt.lookahead = args.number("lookahead", 12);
  sopt.history = args.number("history", 12);
  sopt.reoptimize_every = args.number("reoptimize", 1);
  sopt.mc_trials = args.number("mc_trials", 256);
  sopt.depth_change_hysteresis = args.number("hysteresis", 0.15);
  sopt.seed = seed;
  sopt.serving.slo_ms = args.number("slo_ms", 4000.0);
  sopt.serving.max_batch = args.number("max_batch", 8);
  if (!cli::read_mode(args, sopt.event_driven)) return 1;
  sopt.debounce_ms = args.number("debounce_ms", 250.0);

  obs::MetricsRegistry registry;
  obs::TimeSeriesRecorder series;
  obs::TraceWriter tracer;
  sopt.metrics = &registry;
  if (!args.get("trace_json").empty()) sopt.tracer = &tracer;

  ServingSimOptions sim;
  sim.metrics = &registry;
  if (!args.get("metrics_csv").empty()) sim.timeseries = &series;
  sim.requests_jsonl_path = args.get("requests_jsonl");

  FaultInjector faults;
  if (!cli::arm_faults(args, seed ^ 0xfa017ull, faults)) return 1;
  if (faults.armed()) sim.faults = &faults;

  std::unique_ptr<SloEngine> slo;
  if (!cli::arm_alerts(args, SloEngine::default_serving_rules(), slo))
    return 1;
  if (slo != nullptr) {
    sim.slo = slo.get();
    sim.timeseries = &series;
  }

  cli::Exporter exporter(
      args, [&registry] { return registry.snapshot(); }, sim.faults,
      "metrics");

  ArrivalGenerator arrivals(aopt);
  ServingScheduler scheduler(model, sopt, &arrivals,
                             sopt.mode == ServingMode::kOracle ? &trace
                                                               : nullptr);

  const int trace_intervals = static_cast<int>(
      trace.availability_series(sopt.interval_s).size());
  const int intervals =
      args.number("intervals", trace_intervals);

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

  if (args.get("timeline", "0") == "1") {
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

  if (args.get("metrics", "0") == "1")
    std::printf("\nmetrics:\n%s", r.metrics.render().c_str());
  cli::write_metrics_csv(args, series);
  if (!sim.requests_jsonl_path.empty())
    std::printf("wrote %s (summarize: trace_tool requests %s)\n",
                sim.requests_jsonl_path.c_str(),
                sim.requests_jsonl_path.c_str());
  cli::write_trace_json(args, tracer);
  cli::write_events_jsonl(args, scheduler.core().telemetry());
  cli::report_alerts(args, slo.get());
  exporter.self_scrape();
  return 0;
}
