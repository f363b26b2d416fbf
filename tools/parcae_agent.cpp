// ParcaeAgent as a real operating-system process.
//
// Usage:
//   parcae_agent port=<int> id=<name> [key=value ...]
//
// Run `parcae_agent help` for the keys.
//
// The agent's whole contract with the scheduler is the KV rendezvous:
// register a key under a TTL lease, keep the lease alive, poll the
// advised configuration, ack it under <ns>ack/<id> (a separate prefix
// — the agent/ listing is the liveness census and must contain only
// live agents). No goodbye path exists on purpose: a SIGKILLed agent
// is detected by lease expiry alone.
//
// Crash-survivable by reconnect: the RpcClient runs in reconnect mode
// with real backoff sleeps, so when the scheduler dies and a standby
// takes over the same port, in-flight calls fail, the client re-dials
// until the new listener is up, and a keepalive against the replayed
// store either succeeds (lease survived in the WAL) or returns false
// — in which case the agent re-registers from scratch.
//
// Exit codes: 0 clean shutdown (<ns>control/shutdown observed),
// 2 bad arguments, 3 wall-clock cap (the run outlived the agent's
// patience — a harness timeout, not a protocol outcome).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "cli.h"
#include "rpc/kv_service.h"
#include "rpc/rpc.h"
#include "rpc/transport.h"

namespace {

constexpr char kAbout[] =
    "parcae_agent port=<int> id=<name> [key=value ...]\n"
    "\n"
    "A ParcaeAgent process: keeps a TTL lease in the scheduler hub's\n"
    "KV store and acks the configuration the scheduler advises.\n";

constexpr parcae::cli::Key kKeys[] = {
    {"port", "<int>", "scheduler hub's TCP port (required)"},
    {"id", "<name>", "agent id; registers <ns>agent/<id> (required)"},
    {"ns", "<prefix>", "KV namespace (default parcae/)"},
    {"ttl", "<float>", "lease TTL in logical seconds (default 5.0)"},
    {"heartbeat_ms", "<int>", "wall ms between keepalive rounds (default 30)"},
    {"max_wall_s", "<float>", "wall-clock cap; exit 3 when it lapses (120)"},
    {"deadline_s", "<float>", "per-RPC response deadline (default 0.25)"},
};

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace parcae;
  const cli::Args args(argc, argv, kAbout, kKeys);
  if (!args.has("port") || !args.has("id"))
    args.fail("port= and id= are required");
  const int port = args.number("port", 0);
  const std::string id = args.get("id");
  const std::string ns = args.get("ns", "parcae/");
  const double ttl_s = args.number("ttl", 5.0);
  const int heartbeat_ms = args.number("heartbeat_ms", 30);
  const double max_wall_s = args.number("max_wall_s", 120.0);
  const double deadline_s = args.number("deadline_s", 0.25);

  auto transport = rpc::make_tcp_dial_transport(port, /*connect_timeout_s=*/1.0);

  rpc::RpcClientOptions copt;
  copt.deadline_s = deadline_s;
  copt.reconnect = true;
  copt.sleep_on_retry = true;
  // Enough real backoff (~5s accumulated) to ride out a scheduler
  // restart or standby takeover within one call's retry loop.
  copt.retry.max_attempts = 8;
  copt.retry.budget_s = 20.0;
  rpc::RpcClient client(*transport, "agent-" + id, copt);
  rpc::KvClient kv(client);

  const std::string agent_key = ns + "agent/" + id;
  const std::string ack_key = ns + "ack/" + id;

  std::uint64_t lease = 0;
  const auto register_self = [&] {
    lease = kv.lease_grant(ttl_s);
    if (kv.put_with_lease(agent_key, "alive", lease) == 0) lease = 0;
  };

  const double t0 = wall_s();
  std::string last_advised;
  while (wall_s() - t0 < max_wall_s) {
    try {
      if (lease == 0 || !kv.lease_keepalive(lease)) {
        // Expired (a slow takeover, a dropped heartbeat run) — the
        // old key is tombstoned; re-register as a fresh arrival.
        register_self();
        if (lease == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
          continue;
        }
      }

      if (kv.get(ns + "control/shutdown").has_value()) return 0;

      // Poll the advised configuration; ack changes under ack/ (NOT
      // agent/ — the census prefix must only ever list live agents).
      if (const auto advised = kv.get(ns + "scheduler/advised");
          advised.has_value() && advised->value != last_advised) {
        if (kv.put_with_lease(ack_key, advised->value, lease) != 0)
          last_advised = advised->value;
        else
          lease = 0;  // lease died mid-ack; re-register next round
      }
    } catch (const std::exception&) {
      // Transport retry budget spent (scheduler down longer than the
      // backoff window). Keep trying: the standby may still be coming.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
  }
  return 3;
}
