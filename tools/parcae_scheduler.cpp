// ParcaeScheduler as a real operating-system process: primary or
// standby (docs/robustness.md, "multi-process runtime").
//
// Usage:
//   parcae_scheduler wal=<path> port=<int> [key=value ...]
//
// Run `parcae_scheduler help` for the keys. A standby probes the
// primary's endpoint and takes over from the shared WAL, on the same
// port, when the primary goes silent.
//
// Exit codes: 0 run completed (or, for a standby, primary completed
// without dying), 1 WAL/port failure, 2 bad arguments.
#include <cstdio>
#include <string>

#include "cli.h"
#include "common/fault.h"
#include "runtime/scheduler_process.h"

namespace {

constexpr char kAbout[] =
    "parcae_scheduler wal=<path> port=<int> [key=value ...]\n"
    "\n"
    "A ParcaeScheduler process, primary or standby, serving the KV\n"
    "rendezvous on port= and logging to the shared WAL.\n";

constexpr parcae::cli::Key kKeys[] = {
    {"role", "primary|standby",
     "a standby takes over when the primary goes silent"},
    {"wal", "<path>", "append-only WAL shared with the standby (required)"},
    {"port", "<int>", "TCP port for the KV service (required)"},
    {"intervals", "<int>", "decision intervals in the run (default 16)"},
    {"interval_s", "<float>", "logical seconds per interval (default 2.0)"},
    {"tick_ms", "<int>", "wall ms between ticks (default 100)"},
    {"seat_ttl", "<float>", "primary seat TTL, logical s (default 6.0)"},
    {"takeover_s", "<float>",
     "probe silence before takeover, wall s (default 0.75)"},
    {"probe_ms", "<int>", "standby probe period, wall ms (default 50)"},
    {"agents", "<int>", "expected agent count, the loss scale (default 4)"},
    {"ns", "<prefix>", "KV namespace (default parcae/)"},
    {"name", "<str>", "seat candidate and report label (default: role)"},
    {"seed", "<int>", "decision-core seed (default 123)"},
    {"report", "<path>", "also write the run report to this file"},
    {"faults", "<spec>", "fault spec (docs/robustness.md), else PARCAE_FAULTS"},
    {"faults_seed", "<int>", "injector seed (default 0xfa017)"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace parcae;
  const cli::Args args(argc, argv, kAbout, kKeys);
  if (!args.has("wal") || !args.has("port"))
    args.fail("wal= and port= are required");
  const std::string role = args.get("role", "primary");
  if (role != "primary" && role != "standby") {
    std::fprintf(stderr, "parcae_scheduler: unknown role '%s'\n",
                 role.c_str());
    return 2;
  }

  SchedulerProcessOptions options;
  options.wal_path = args.get("wal");
  options.port = args.number("port", 0);
  options.intervals = args.number("intervals", 16);
  options.interval_s = args.number("interval_s", 2.0);
  options.tick_wall_ms = args.number("tick_ms", 100);
  options.seat_ttl_s = args.number("seat_ttl", 6.0);
  options.takeover_after_s = args.number("takeover_s", 0.75);
  options.probe_interval_ms = args.number("probe_ms", 50);
  options.requested_instances = args.number("agents", 4);
  options.kv_namespace = args.get("ns", "parcae/");
  options.name = args.get("name", role);
  options.seed = args.number("seed", std::uint64_t{123});
  options.report_path = args.get("report");

  FaultInjector faults;
  if (!cli::arm_faults(args, 0xfa017ull, faults)) return 2;
  if (faults.armed()) options.faults = &faults;

  SchedulerProcess scheduler(options);
  const int rc =
      role == "standby" ? scheduler.run_standby() : scheduler.run_primary();
  std::fputs(scheduler.report().to_text().c_str(), stdout);
  return rc;
}
