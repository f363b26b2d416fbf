// Live telemetry export over the wire: the obs.metrics endpoint.
//
// ObsService serves the current MetricsSnapshot of a caller-supplied
// provider (typically MetricsRegistry::snapshot, or a FleetAggregator
// rollup) in two formats over the existing inproc/TCP RPC machinery:
// Prometheus text exposition 0.0.4 ("prom", the default — what a
// scraper hitting a /metrics endpoint would read) and the snapshot's
// JSON ("json"). Rendering happens at serve time from a fresh
// snapshot, so a long-lived scraper always sees live values, and both
// formats use obs::format_metric_value — byte-identical with the
// registry's own snapshot output (no exporter drift).
//
// The "obs.export" fault point fires inside the handler, so chaos
// runs can prove a failed scrape never disturbs training (export is
// observation only; it feeds nothing back into decisions).
#pragma once

#include <functional>
#include <string>

#include "obs/metrics.h"

namespace parcae {
class FaultInjector;
}  // namespace parcae

namespace parcae::rpc {

class RpcClient;
class RpcServer;

// Server side: registers obs.metrics on an RpcServer.
class ObsService {
 public:
  using SnapshotProvider = std::function<obs::MetricsSnapshot()>;

  // Serves snapshots of `registry` (non-owning; must outlive the
  // service).
  explicit ObsService(const obs::MetricsRegistry& registry);
  // Serves whatever `provider` returns (a fleet rollup, a filtered
  // view, a test fixture).
  explicit ObsService(SnapshotProvider provider);

  void bind(RpcServer& server);
  // Arms the "obs.export" point inside the handler (non-owning).
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  SnapshotProvider provider_;
  FaultInjector* faults_ = nullptr;
};

// Client side: one scrape per call. Throws the transport's
// RpcTimeout/RpcError (and InjectedFault from the obs.export point).
class ObsClient {
 public:
  explicit ObsClient(RpcClient& client) : client_(client) {}

  // Prometheus text exposition of the server's current snapshot.
  std::string scrape();
  // The snapshot as MetricsSnapshot::to_json().
  std::string scrape_json();

 private:
  RpcClient& client_;
};

}  // namespace parcae::rpc
