#include "rpc/obs_service.h"

#include <utility>

#include "common/fault.h"
#include "obs/exporter.h"
#include "rpc/rpc.h"
#include "rpc/serializer.h"

namespace parcae::rpc {

ObsService::ObsService(const obs::MetricsRegistry& registry)
    : provider_([&registry] { return registry.snapshot(); }) {}

ObsService::ObsService(SnapshotProvider provider)
    : provider_(std::move(provider)) {}

void ObsService::bind(RpcServer& server) {
  // Request: str format ("prom" | "json"). Response: str body.
  server.register_method("obs.metrics", [this](const std::string& p) {
    ByteReader r(p);
    const std::string format = r.str();
    r.expect_done();
    if (faults_ != nullptr) faults_->maybe_throw("obs.export");
    const obs::MetricsSnapshot snapshot = provider_();
    ByteWriter w;
    if (format == "json")
      w.str(snapshot.to_json());
    else
      w.str(obs::to_prometheus(snapshot));
    return w.take();
  });
}

namespace {
std::string scrape_as(RpcClient& client, const char* format) {
  ByteWriter w;
  w.str(format);
  ByteReader r(client.call("obs.metrics", w.take()));
  std::string body = r.str();
  r.expect_done();
  return body;
}
}  // namespace

std::string ObsClient::scrape() { return scrape_as(client_, "prom"); }

std::string ObsClient::scrape_json() { return scrape_as(client_, "json"); }

}  // namespace parcae::rpc
