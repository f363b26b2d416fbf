// Fleet simulation CLI: many Parcae jobs multiplexed over one shared
// spot pool, liveput-arbitrated leases vs. static partitioning.
//
//   fleet_sim_cli [key=value ...]
//
// Run `fleet_sim_cli help` for the keys.
#include <cstdio>
#include <memory>
#include <string>

#include "cli.h"
#include "fleet/fleet_sim.h"
#include "obs/exporter.h"
#include "trace/trace_io.h"

using namespace parcae;

namespace {

constexpr char kAbout[] =
    "fleet_sim_cli [key=value ...]\n"
    "\n"
    "Replay a fleet of Parcae jobs over one shared spot pool, with\n"
    "the FleetArbiter granting/revoking leases each interval, and\n"
    "compare against static partitioning (docs/fleet.md). Jobs cycle\n"
    "through GPT-2/BERT-Large/ResNet-152/VGG-19 with weights\n"
    "1.0/2.0/1.0/0.5.\n"
    "\n"
    "example:\n"
    "  fleet_sim_cli jobs=50 trace=LA-SP seed=7\n";

constexpr cli::Key kKeys[] = {
    {"jobs", "<int>", "fleet size (default 10)"},
    {"trace", "HA-DP|HA-SP|LA-DP|LA-SP|full-day|<file.csv>",
     "shared pool trace (default full-day)"},
    {"capacity", "<int>", "pool capacity (default 32)"},
    {"seed", "<int>", "fleet seed; job j's is fleet_job_seed(seed, j)"},
    {"lookahead", "<int>", "per-job lookahead (default 6)"},
    {"history", "<int>", "per-job prediction history (default 8)"},
    {"mc_trials", "<int>", "per-job Monte-Carlo trials (default 16)"},
    {"mode", "tick|event",
     "per-interval or lease-event re-solves (default tick)"},
    {"debounce_ms", "<float>", "mode=event coalescing window (default 250)"},
    {"swap_margin", "<float>", "arbiter swap hysteresis (default 0.05)"},
    {"static", "0|1",
     "also run static partitioning and compare (default 1)"},
    {"metrics", "0|1", "print the metrics-registry snapshot"},
    {"rollup", "0|1", "print the per-job metrics folded into fleet.*"},
    {"alerts", "<spec>|default",
     "fleet SLO rules on the rollup, once per regime"},
    {"alerts_jsonl", "<file>", "fired alerts as JSONL"},
    {"export_port", "<int>",
     "serve the fleet rollup over TCP RPC (0 = ephemeral)"},
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kAbout, kKeys);

  const std::string trace_name = args.get("trace", "full-day");
  std::string trace_error;
  const std::optional<SpotTrace> trace =
      resolve_trace(trace_name, &trace_error);
  if (!trace) {
    std::fprintf(stderr, "cannot resolve trace '%s': %s\n",
                 trace_name.c_str(), trace_error.c_str());
    return 1;
  }

  const int num_jobs = args.number("jobs", 10);
  if (num_jobs < 1) {
    std::fprintf(stderr, "jobs=%d: need at least one job\n", num_jobs);
    return 1;
  }

  fleet::FleetSimOptions options;
  options.fleet_seed = args.number("seed", std::uint64_t{42});
  options.capacity = args.number("capacity", 32);
  options.lookahead = args.number("lookahead", 6);
  options.history = args.number("history", 8);
  options.mc_trials = args.number("mc_trials", 16);
  options.swap_margin = args.number("swap_margin", 0.05);
  if (!cli::read_mode(args, options.event_driven)) return 1;
  options.debounce_ms = args.number("debounce_ms", 250.0);

  obs::MetricsRegistry registry;
  options.metrics = &registry;

  // Fleet SLOs: rules run against the FleetAggregator rollup once per
  // regime, so they can target fleet-wide names ("fleet.sim.preemptions",
  // "fleet.fleet.normalized_liveput.max", arbiter counters).
  std::unique_ptr<SloEngine> slo;
  if (!cli::arm_alerts(args, SloEngine::default_rules(), slo)) return 1;
  options.slo = slo.get();

  // Live export: every scrape folds a fresh registry snapshot through
  // the aggregator, so a scraper watches fleet.* rollups move as jobs
  // integrate.
  cli::Exporter exporter(
      args,
      [&registry] {
        obs::FleetAggregator aggregator;
        aggregator.fold(registry.snapshot());
        return aggregator.rollup();
      },
      nullptr, "fleet rollup");

  fleet::FleetSimulator simulator(fleet::standard_fleet(num_jobs), options);
  const fleet::FleetSimResult arbiter = simulator.run(*trace);
  std::printf("%s", arbiter.to_string().c_str());

  if (args.get("static", "1") == "1") {
    const fleet::FleetSimResult baseline = simulator.run_static(*trace);
    std::printf("\n%s", baseline.to_string().c_str());
    const double gain =
        baseline.weighted_liveput > 0.0
            ? arbiter.weighted_liveput / baseline.weighted_liveput - 1.0
            : 0.0;
    std::printf(
        "\narbiter vs static: %+.1f%% weighted liveput "
        "(%.4f vs %.4f), share deviation %.4f vs %.4f\n",
        gain * 100.0, arbiter.weighted_liveput, baseline.weighted_liveput,
        arbiter.weighted_share_deviation,
        baseline.weighted_share_deviation);
  }

  if (args.get("metrics", "0") == "1") {
    std::printf("\nmetrics:\n%s", registry.snapshot().render().c_str());
  }
  if (args.get("rollup", "0") == "1") {
    obs::FleetAggregator aggregator;
    aggregator.fold(registry.snapshot());
    std::printf("\nfleet rollup (%d jobs folded):\n%s", aggregator.jobs(),
                aggregator.rollup().render().c_str());
  }
  cli::report_alerts(args, slo.get());
  exporter.self_scrape();
  return 0;
}
