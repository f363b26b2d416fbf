// The scheduler as a crash-survivable operating-system process.
//
// SchedulerProcess packages the pieces the in-process runtime already
// has — KvStore rendezvous, SchedulerCore decisions, LeaseElection —
// into the deployment shape of the paper's §9 system: one primary
// process owning the store and the decision loop, real agent child
// processes reaching it over TCP (tools/parcae_agent), and a standby
// process waiting to take over. Three properties are the point:
//
//   Durability.   Every KvStore mutation is WAL-logged write-ahead
//     (src/runtime/wal.h), and every interval commits one decision
//     record carrying the observation the core actually saw (agent
//     set, availability triple) plus the advice it issued. A
//     restarted scheduler replays the KV records into a fresh store
//     and *re-steps* its deterministic core over the logged
//     observations, so the advised-config sequence after the restart
//     is bit-for-bit the sequence an uninterrupted run would have
//     produced. Any replay step whose recomputed advice differs from
//     the logged advice sets `replay_divergence` — a corruption
//     tripwire, not a recovery strategy.
//
//   Liveness by lease.  Agents register under <ns>agent/<id> bound to
//     a TTL lease on the store's logical clock; the clock advances
//     once per interval tick. A SIGKILLed agent sends no goodbye —
//     its key simply tombstones when the TTL lapses, and the next
//     observation sees the smaller agent set. This is the paper's
//     etcd liveness path with real process death behind it.
//
//   HA takeover.  The primary holds the <ns>scheduler/primary seat
//     through LeaseElection. A standby (run_standby) probes the
//     primary's TCP endpoint; when fleet::StandbyMonitor declares it
//     dead, the standby replays the shared WAL, binds the SAME port
//     (the dead process's listener is gone), campaigns for the seat
//     as the old holder's lease expires, and resumes ticking at the
//     interval after the last committed decision. Agents ride the
//     restart out via RpcClient reconnect — same address, fresh
//     socket.
//
// Idempotence across the crash point: the tick's logical-clock
// advance targets the absolute time (interval+1)*interval_s rather
// than adding a delta, so a crash between the advance and the
// decision commit does not double-advance on resume; the decision
// append is the interval's commit point.
//
// Training progress is modeled, not executed: each interval earns
//   samples += throughput(advised config) * max(0, interval_s - stall)
// from the core's own ThroughputModel, and the run's synthetic loss
//   loss = 0.3 + 6 / (1 + samples / tau)
// decays toward 0.3 as samples accumulate (tau is a quarter of the
// ideal full-availability run's samples). The multiproc example
// asserts convergence under SIGKILL chaos — a run that loses real
// intervals to a slow takeover visibly fails to converge.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.h"
#include "core/scheduler_core.h"
#include "fleet/election.h"
#include "runtime/kv_store.h"
#include "runtime/wal.h"

namespace parcae {

class FaultInjector;

struct SchedulerProcessOptions {
  std::string name = "scheduler";  // seat candidate / report label
  // Append-only WAL shared by primary and standby (same filesystem —
  // the paper's persistent-disk assumption for etcd).
  std::string wal_path;
  // TCP port for the KV service; < 0 runs storeside-only (in-process
  // tests drive tick() directly and mutate kv() for churn).
  int port = -1;

  int intervals = 16;        // decision intervals in the run
  double interval_s = 2.0;   // logical seconds per interval
  int tick_wall_ms = 100;    // wall pacing between ticks (run_primary)

  // Liveness TTLs on the logical clock. The seat TTL bounds how long
  // a dead primary blocks the standby's campaign (in intervals).
  double seat_ttl_s = 6.0;

  // Standby failure detection (wall clock, not logical).
  double takeover_after_s = 0.75;
  int min_failed_probes = 3;
  int probe_interval_ms = 50;
  double probe_deadline_s = 0.15;

  // Capacity the synthetic-loss tau is computed against (the agent
  // count the run is expected to hold).
  int requested_instances = 4;

  std::string kv_namespace = "parcae/";
  std::uint64_t seed = 123;

  // Written by run_primary / run_standby on completion ("" = skip).
  std::string report_path;

  // Retry schedule for WAL-aborted mutations (torn-write injection).
  RetryOptions wal_retry;

  // Non-owning sinks. The injector reaches the WAL writer (for
  // kv.wal_write) and the transport (rpc.* points) — NOT the store's
  // kv.* points, which belong to in-process fault tests.
  FaultInjector* faults = nullptr;
  obs::MetricsRegistry* metrics = nullptr;  // else a process-owned one
};

// One advised configuration, the unit the bit-identity tests compare.
struct AdvisedRecord {
  int interval = 0;
  int dp = 0;
  int pp = 0;
  double stall_s = 0.0;

  friend bool operator==(const AdvisedRecord&,
                         const AdvisedRecord&) = default;
  std::string to_string() const;
};

struct SchedulerRunReport {
  std::string name;
  int intervals_run = 0;            // ticks executed by THIS process
  int resumed_from_interval = -1;   // first live interval (-1 = fresh)
  bool recovered = false;           // WAL had prior state
  bool replay_divergence = false;   // recomputed advice != logged
  bool took_over = false;           // standby promoted to primary
  double total_samples = 0.0;
  double final_loss = 0.0;
  bool converged = false;
  std::uint64_t wal_truncated_records = 0;
  std::uint64_t lease_expirations = 0;
  std::vector<AdvisedRecord> advised;  // full sequence incl. replayed

  std::string to_text() const;
};

class SchedulerProcess {
 public:
  explicit SchedulerProcess(SchedulerProcessOptions options);
  ~SchedulerProcess();

  SchedulerProcess(const SchedulerProcess&) = delete;
  SchedulerProcess& operator=(const SchedulerProcess&) = delete;

  // Replays the WAL (repairing a torn tail), re-steps the core over
  // the logged decisions, opens the writer and attaches it to the
  // store. Must run before tick(). False (reason in *error) when the
  // WAL is unreadable.
  bool init_primary(std::string* error = nullptr);

  // One decision interval: advance the logical clock (idempotent),
  // renew/campaign the seat, observe <ns>agent/, step the core,
  // commit the decision record, publish the advice.
  void tick();
  bool done() const { return next_interval_ >= options_.intervals; }
  int next_interval() const { return next_interval_; }

  // Full process entry points (tools/parcae_scheduler): returns the
  // process exit code. run_standby probes, takes over on silence,
  // then runs the primary loop from the shared WAL.
  int run_primary();
  int run_standby();

  // The store, for in-process tests to script agent churn against.
  KvStore& kv() { return kv_; }
  SchedulerCore& core() { return core_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }

  const std::vector<AdvisedRecord>& advised() const { return advised_; }
  bool recovered() const { return recovered_; }
  bool replay_divergence() const { return replay_divergence_; }
  bool took_over() const { return took_over_; }
  double total_samples() const { return samples_; }

  SchedulerRunReport report() const;
  bool write_report(std::string* error = nullptr) const;

 private:
  static SchedulerCoreOptions core_options(
      const SchedulerProcessOptions& options, obs::MetricsRegistry* metrics);

  // Serves the KV service on options_.port until *this is destroyed.
  // Retries the bind (a takeover may race the dying listener).
  bool start_server();
  void finish_run();
  double loss_for(double samples) const;
  // Logged-mutation helper: retries on the torn-write InjectedFault
  // (the writer self-heals its tail on the next append).
  template <typename F>
  void with_wal_retry(const char* what, F&& fn);

  SchedulerProcessOptions options_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;
  KvStore kv_;
  SchedulerCore core_;
  WalWriter wal_;
  fleet::LeaseElection seat_;
  std::string ns_;

  // RPC plumbing, live only while serving (types hidden in the .cpp).
  struct Server;
  std::unique_ptr<Server> server_;

  int next_interval_ = 0;
  int resumed_from_ = -1;
  int ticks_run_ = 0;
  bool recovered_ = false;
  bool replay_divergence_ = false;
  bool took_over_ = false;
  double samples_ = 0.0;
  double tau_ = 1.0;
  std::vector<std::string> prev_agents_;
  std::vector<AdvisedRecord> advised_;
};

}  // namespace parcae
