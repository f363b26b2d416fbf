// The whole paper end to end at laptop scale: a generated spot market
// preempts and grants instances; the SpotTrainingDriver runs
// Algorithm 1 (ARIMA forecast -> liveput optimizer -> §8 adaptation ->
// real live migrations) against a real model training on a real
// cluster of agents.
//
//   spot_training_e2e [key=value ...]
//
// Run `spot_training_e2e help` for the keys. The report is
// bit-identical across transports on a fault-free run
// (tests/rpc_test.cpp pins this); the rpc section at the end shows
// what the wire actually carried.
#include <cstdio>
#include <string>

#include "cli.h"
#include "migration/planner.h"
#include "nn/dataset.h"
#include "runtime/spot_driver.h"
#include "trace/spot_market.h"

using namespace parcae;

namespace {

constexpr char kAbout[] =
    "spot_training_e2e [key=value ...]\n"
    "\n"
    "Train a real model on a real cluster of agents while a generated\n"
    "spot market preempts and grants instances (SpotTrainingDriver).\n"
    "\n"
    "example:\n"
    "  spot_training_e2e transport=tcp faults=rpc.drop:prob=0.05\n";

constexpr cli::Key kKeys[] = {
    {"transport", "inproc|tcp",
     "agent-to-hub transport (default inproc, docs/rpc.md)"},
    {"rpc_port", "<int>", "TCP listen port (0 = ephemeral)"},
    {"faults", "<spec>", "fault spec (docs/robustness.md), else PARCAE_FAULTS"},
    {"faults_seed", "<int>", "injector seed (default 0xfa017)"},
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args(argc, argv, kAbout, kKeys);
  const auto dataset = nn::make_blobs(512, 16, 5, 0.5, 20240101);

  // Generate a choppy spot market for an 8-instance reservation.
  Rng rng(7);
  SpotMarketOptions market;
  market.capacity = 8;
  market.bid = 1.0;
  market.grant_rate = 2.5;
  market.duration_s = 60 * 60.0;
  const SpotMarketResult m = simulate_spot_market(market, rng);
  const TraceStats stats = m.trace.stats();
  std::printf(
      "generated spot market: avg %.1f instances, %d preemption events, "
      "%d allocation events, mean paid price $%.2f/h\n\n",
      stats.avg_instances, stats.preemption_events, stats.allocation_events,
      m.mean_paid_price);

  TrainingClusterOptions cluster;
  cluster.layer_sizes = {16, 48, 32, 5};
  cluster.epoch_size = dataset.size();
  cluster.batch_size = 64;
  cluster.initial_instances = 0;  // the market grants them
  cluster.transport = args.get("transport", "inproc");
  cluster.rpc_port = args.number("rpc_port", 0);

  // rpc.* fault points exercise the transport layer.
  FaultInjector faults;
  if (!cli::arm_faults(args, 0xfa017ull, faults)) return 1;

  SpotDriverOptions driver_options;
  driver_options.iterations_per_interval = 6;
  if (faults.armed()) driver_options.faults = &faults;
  SpotTrainingDriver driver(cluster, &dataset, driver_options);
  std::printf("transport: %s", driver.cluster().rpc_transport().kind());
  if (cluster.transport == "tcp")
    std::printf(" (%s)", driver.cluster().rpc_address().c_str());
  if (faults.armed())
    std::printf(", faults armed: %s", faults.describe().c_str());
  std::printf("\n\n");
  const SpotDriverReport report = driver.run(m.trace);

  std::printf("ran %d intervals, %lld training iterations, %zu epochs\n",
              report.intervals, report.iterations, report.epochs_completed);
  std::printf("final loss: %.4f\n", static_cast<double>(report.final_loss));
  std::printf("replica consistency held: %s\n",
              report.replicas_always_consistent ? "yes" : "NO");
  std::printf("ParcaePS rollbacks: %lld\n\n", report.ps_rollbacks);
  std::printf("live migrations executed:\n");
  for (MigrationKind kind :
       {MigrationKind::kIntraStage, MigrationKind::kInterStage,
        MigrationKind::kPipeline, MigrationKind::kRollback,
        MigrationKind::kSuspend}) {
    std::printf("  %-12s %d\n", migration_kind_name(kind),
                report.migrations(kind));
  }

  // What actually crossed the wire: every agent-side KV/PS operation
  // goes through the RPC layer in both transport modes.
  const auto counter = [&report](const std::string& name) {
    const auto it = report.metrics.counters.find(name);
    return it == report.metrics.counters.end() ? 0.0 : it->second;
  };
  std::printf("\nrpc (%s):\n", driver.cluster().rpc_transport().kind());
  std::printf("  requests      %.0f (retries %.0f, timeouts %.0f)\n",
              counter("rpc.requests"), counter("rpc.client.retries"),
              counter("rpc.timeouts"));
  std::printf("  responses     %.0f (server replays %.0f)\n",
              counter("rpc.responses"), counter("rpc.server.replays"));
  std::printf("  frames        %.0f sent / %.0f received, %.0f dropped\n",
              counter("rpc.frames_sent"), counter("rpc.frames_received"),
              counter("rpc.dropped"));
  std::printf("  bytes         %.0f sent / %.0f received\n",
              counter("rpc.bytes_sent"), counter("rpc.bytes_received"));
  if (faults.armed())
    std::printf("  faults        %llu injected\n",
                static_cast<unsigned long long>(faults.total_fired()));
  return 0;
}
