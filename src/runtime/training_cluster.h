// In-process enactment of Parcae's runtime architecture (Figure 7):
// ParcaeAgents hosting real pipeline stages, a scheduler that executes
// live migrations between them, ParcaePS mirroring every stage's
// states in "CPU DRAM", the SampleManager feeding data, and the
// KvStore recording the coordination state (assignments, config) the
// way the real system uses etcd.
//
// Unlike the interval-level ClusterSimulator (which models *time* and
// *cost*), this layer executes *real training math*: stages compute
// actual forwards/backwards on a real model, migrations copy actual
// parameters and optimizer states, and tests can verify Parcae's
// semantics claims directly — replicas stay bit-identical, migrations
// never corrupt the model, distributed training matches monolithic
// training, and every sample is trained exactly once per epoch.
//
// The §8 exception-handling paths run here too, driven by an attached
// FaultInjector (docs/robustness.md): zero-grace kills landing
// mid-iteration abandon the in-flight SampleManager lease (samples are
// re-leased later), kills landing mid-migration abort the partial plan
// and fall back to a kRollback restore from ParcaePS, failed ParcaePS
// pushes and KvStore writes are retried on a deterministic backoff
// schedule, and silent agent death is detected through KvStore lease
// expiry once the heartbeats stop.
// Transport modes: the coordination half of the Figure-7 wiring runs
// over the src/rpc stack. The cluster hosts the hub endpoint (KvStore
// + ParcaePS pool behind an RpcServer) and the agent side reaches it
// only through an RpcClient — kv puts, lease grants/keepalives/
// revocations, and every ParcaePS push/pull/restore cross the wire.
// "inproc" (the default) delivers frames synchronously in-process and
// is bit-identical with the historical direct-call runtime; "tcp"
// carries the same frames over real localhost sockets. The scheduler
// side (watches, advance_clock, prefix scans) stays co-located with
// the store, the way the paper's scheduler owns etcd.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "core/telemetry.h"
#include "migration/planner.h"
#include "nn/dataset.h"
#include "nn/optimizer.h"
#include "nn/stage.h"
#include "parallel/parallel_config.h"
#include "rpc/kv_service.h"
#include "rpc/ps_service.h"
#include "rpc/rpc.h"
#include "rpc/transport.h"
#include "runtime/kv_store.h"
#include "runtime/parcae_ps.h"
#include "runtime/sample_manager.h"

namespace parcae {

namespace obs {
class MetricsRegistry;
class TraceWriter;
}  // namespace obs

// One spot instance. When assigned, it hosts a replica of one pipeline
// stage (module + its own optimizer replica).
struct ParcaeAgent {
  int id = -1;
  bool alive = false;
  int pipeline = -1;  // -1: spare (allocated but unassigned)
  int stage = -1;
  std::unique_ptr<nn::StageModule> module;
  std::unique_ptr<nn::Adam> optimizer;
  // KvStore liveness lease the agent heartbeats while alive.
  std::uint64_t lease = 0;

  bool assigned() const { return alive && pipeline >= 0; }
};

struct TrainingClusterOptions {
  std::vector<std::size_t> layer_sizes{16, 48, 32, 5};  // global MLP
  float learning_rate = 0.004f;
  std::uint64_t seed = 1;
  int initial_instances = 6;
  std::size_t epoch_size = 512;
  std::size_t batch_size = 32;
  // TTL of each agent's KvStore liveness lease; heartbeat() renews it.
  // A zero-grace kill() stops the heartbeats and the death surfaces
  // through lease expiry (the driver's detection channel).
  double agent_lease_ttl_s = 150.0;
  // Backoff schedule for recoverable operations (ParcaePS pushes,
  // KvStore writes) when a FaultInjector makes them fail.
  RetryOptions retry;
  // Transport carrying the agent-side KV/PS traffic: "inproc"
  // (deterministic same-process delivery, the default) or "tcp" (real
  // localhost sockets).
  std::string transport = "inproc";
  // TCP listen port; 0 binds an ephemeral port (rpc_address() reports
  // the bound one). Ignored by inproc.
  int rpc_port = 0;
  // Per-call response deadline for the RpcClient (only throttles tcp
  // waits; inproc delivery is synchronous).
  double rpc_deadline_s = 0.25;
  // Transport-level resend schedule (same-correlation-id retries on
  // dropped/timed-out frames). Deeper than the application `retry`
  // budget so a single logical call survives an rpc.drop chaos run.
  RetryOptions rpc_retry = [] {
    RetryOptions o;
    o.max_attempts = 6;
    return o;
  }();
};

struct IterationOutcome {
  float loss = 0.0f;
  std::size_t samples = 0;
  bool epoch_finished = false;
};

class TrainingCluster {
 public:
  TrainingCluster(TrainingClusterOptions options, const nn::Dataset* dataset);
  // Closes the agent connection, stops the RPC server (joining any
  // transport thread) before the served state is torn down.
  ~TrainingCluster();

  // ---- cloud events -------------------------------------------------
  // Adds `count` fresh (spare) instances; returns their ids.
  std::vector<int> allocate(int count);
  // Preempts specific instances (takes effect at the iteration
  // boundary, as the grace period allows). The graceful path: the
  // agent's lease is revoked and its KvStore record marked.
  void preempt(const std::vector<int>& agent_ids);
  // Preempts `count` instances chosen uniformly at random.
  void preempt_random(int count, Rng& rng);
  // Zero-grace kill (no notice, no grace period): the agent dies
  // *silently* — its KvStore record and lease are left untouched, so
  // the death is only detectable through lease expiry once the
  // heartbeats stop. Fault-injected mid-iteration/mid-migration kills
  // funnel through here.
  void kill(const std::vector<int>& agent_ids);

  int alive_count() const;
  int spare_count() const;

  // ---- scheduler ----------------------------------------------------
  // Migrates to `target` (which must satisfy target.instances() <=
  // alive_count()). Chooses intra-stage reuse where possible, copies
  // states across stages where needed, re-shards on depth change, and
  // restores from ParcaePS when a stage has no surviving replica.
  // Passing kIdleConfig suspends training. Returns what it had to do.
  MigrationKind reconfigure(ParallelConfig target);

  ParallelConfig config() const { return config_; }
  int pipeline_depth_limit() const;  // layers available to split

  // False when preemptions have punched holes in the current
  // assignment; training cannot proceed until reconfigure() runs.
  bool assignment_intact() const;

  // ---- training -----------------------------------------------------
  // One synchronous data+pipeline-parallel iteration over one leased
  // mini-batch; commits the samples and pushes gradients to ParcaePS.
  // Returns nullopt when suspended or the epoch pool is exhausted
  // (epoch_finished is reported through the outcome of the last
  // successful iteration instead).
  std::optional<IterationOutcome> train_iteration();

  // Evaluation on an arbitrary batch using pipeline 0's stages.
  float eval_loss(const nn::Matrix& x, const std::vector<int>& labels);

  // ---- introspection / invariants ------------------------------------
  // All replicas of every stage hold identical parameters.
  bool replicas_consistent() const;
  // Full flat parameter vector assembled from pipeline 0 (layer-major;
  // comparable with nn::Mlp::flat_parameters of the same layout).
  std::vector<float> assembled_parameters() const;
  SampleManager& samples() { return samples_; }
  KvStore& kv() { return kv_; }
  // The "agent/" key prefix this cluster registers agents under — the
  // prefix drivers must watch/list/get through.
  const std::string& agent_key_prefix() const { return agent_key_prefix_; }
  const std::vector<ParcaeAgent>& agents() const { return agents_; }
  long long rollbacks() const { return rollbacks_; }
  // The transport carrying agent-side traffic ("inproc" | "tcp") and
  // its server address — exposed for banners, reports, and the
  // partition-injection tests.
  rpc::Transport& rpc_transport() { return *transport_; }
  std::string rpc_address() const { return transport_->address(); }

  // ---- robustness hooks ---------------------------------------------
  // Non-owning sinks, all optional. The injector drives the
  // "cluster.kill_mid_iteration" / "cluster.kill_mid_migration" points
  // (and is forwarded to the KvStore and every ParcaePS replica for
  // "kv.*" / "ps.push"); metrics receive cluster.* recovery counters
  // and retry.* instrumentation; the event log gets one entry per
  // injected fault and recovery, stamped with set_time().
  // Forwarded to the KvStore, the ParcaePS pool, and the transport
  // (arming the rpc.* wire-fault points).
  void set_fault_injector(FaultInjector* faults);
  // Forwarded to the transport, server, and client so rpc.* counters
  // land next to the cluster.* ones.
  void set_metrics(obs::MetricsRegistry* metrics);
  // Distributed tracing, split by side of the wire: `agent_tracer`
  // receives the agent-side "rpc.call.*" spans (it is usually the
  // driver's writer, so calls nest under scheduler decision spans) and
  // `hub_tracer` the hub-side "rpc.handle.*" spans — two files that
  // `trace_tool merge` fuses into one cross-process timeline. Either
  // may be null; pass the same writer twice for a single-file view.
  void set_tracers(obs::TraceWriter* agent_tracer,
                   obs::TraceWriter* hub_tracer);
  void set_event_log(EventLog* events) { events_ = events; }
  void set_time(double now_s) { now_s_ = now_s; }
  // Renews the liveness lease of every alive agent (driven once per
  // interval by the driver). Injected keepalive failures are retried;
  // an exhausted retry is dropped (the lease may then expire
  // spuriously — a false-positive death, counted by the driver).
  void heartbeat();

 private:
  struct StageState {
    std::vector<float> parameters;
    std::vector<float> optimizer_state;
  };

  ParcaeAgent* agent_at(int pipeline, int stage);
  const ParcaeAgent* agent_at(int pipeline, int stage) const;
  // Clears optimizer states that aren't a full [t, m..., v...] record
  // (a never-stepped Adam serializes as [t] alone).
  static StageState normalized(StageState state);
  // Collect one healthy copy of every stage's state (from survivors or
  // ParcaePS). Returns per-stage states for the *current* partition.
  std::vector<StageState> collect_stage_states(bool& used_ps);
  void publish_assignments();
  StageState stage_state_from_ps(int stage) const;
  // Kills one uniformly chosen alive agent (the injector's pick
  // stream); returns its id, or -1 when nobody is alive.
  int kill_random_alive();
  // KvStore put with the retry schedule; an exhausted retry is counted
  // and dropped (coordination state goes stale, leases still expire).
  void kv_put_retried(const std::string& key, const std::string& value);
  void kv_put_retried(const std::string& key, const std::string& value,
                      std::uint64_t lease_id);
  void record_event(EventCategory category, std::string message,
                    std::map<std::string, std::string> fields = {});
  void count(const char* name);

  TrainingClusterOptions options_;
  std::string agent_key_prefix_;
  const nn::Dataset* dataset_;
  KvStore kv_;
  SampleManager samples_;
  Rng rng_;
  std::vector<ParcaeAgent> agents_;
  ParallelConfig config_ = kIdleConfig;
  std::vector<std::vector<std::size_t>> stage_dims_;  // current partition
  long long rollbacks_ = 0;
  int next_agent_id_ = 0;
  FaultInjector* faults_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  EventLog* events_ = nullptr;
  double now_s_ = 0.0;

  // RPC wiring, declared after the state it serves so reverse
  // destruction tears down clients first, then the server (joining
  // the tcp thread), then the transport — all before kv_ dies.
  std::unique_ptr<rpc::Transport> transport_;
  std::unique_ptr<rpc::RpcServer> server_;
  std::unique_ptr<rpc::KvService> kv_service_;
  // Hub-side ParcaePS pool: one replica per stage of the *current*
  // partition, owned behind the ps.* methods.
  std::unique_ptr<rpc::PsService> ps_service_;
  std::unique_ptr<rpc::RpcClient> rpc_client_;
  std::unique_ptr<rpc::KvClient> kv_client_;
  std::unique_ptr<rpc::PsClient> ps_client_;
};

}  // namespace parcae
