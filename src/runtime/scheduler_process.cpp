#include "runtime/scheduler_process.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "rpc/kv_service.h"
#include "rpc/rpc.h"
#include "rpc/transport.h"

namespace parcae {

namespace {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// A tiny MLP sized so pipeline depths up to 8 are feasible: the
// decision loop has real configuration choices without real training.
ModelProfile multiproc_profile() {
  return mlp_profile("mlp-multiproc", {64, 48, 48, 48, 48, 32, 32, 16, 8}, 32);
}

}  // namespace

std::string AdvisedRecord::to_string() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%d %dx%d stall=%.6f", interval, dp, pp,
                stall_s);
  return buf;
}

std::string SchedulerRunReport::to_text() const {
  std::ostringstream out;
  char buf[64];
  out << "scheduler run report\n";
  out << "name: " << name << "\n";
  out << "intervals run: " << intervals_run << "\n";
  out << "resumed from interval: " << resumed_from_interval << "\n";
  out << "recovered: " << (recovered ? "yes" : "no") << "\n";
  out << "replay divergence: " << (replay_divergence ? "yes" : "no") << "\n";
  out << "standby takeover: " << (took_over ? "yes" : "no") << "\n";
  std::snprintf(buf, sizeof(buf), "%.3f", total_samples);
  out << "total samples: " << buf << "\n";
  std::snprintf(buf, sizeof(buf), "%.6f", final_loss);
  out << "final loss: " << buf << "\n";
  out << "converged: " << (converged ? "yes" : "no") << "\n";
  out << "wal truncated records: " << wal_truncated_records << "\n";
  out << "lease expirations: " << lease_expirations << "\n";
  for (const AdvisedRecord& a : advised)
    out << "advised: " << a.to_string() << "\n";
  return out.str();
}

SchedulerCoreOptions SchedulerProcess::core_options(
    const SchedulerProcessOptions& options, obs::MetricsRegistry* metrics) {
  SchedulerCoreOptions core;
  core.interval_s = options.interval_s;
  core.seed = options.seed;
  core.metrics = metrics;
  core.max_instances =
      std::max(core.max_instances, options.requested_instances);
  return core;
}

SchedulerProcess::SchedulerProcess(SchedulerProcessOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics : &own_metrics_),
      core_(multiproc_profile(), core_options(options_, metrics_)),
      seat_(&kv_, options_.kv_namespace + "scheduler/primary",
            options_.seat_ttl_s),
      ns_(options_.kv_namespace) {
  wal_.set_metrics(metrics_);
  if (options_.faults != nullptr) wal_.set_fault_injector(options_.faults);
  // Loss scale: a quarter of the samples an ideal full-availability
  // run would earn, so convergence (< 2.0) needs a sustained majority
  // of the run actually training — dropped intervals show.
  const ThroughputModel& tm = core_.throughput_model();
  const double best =
      tm.throughput(tm.best_config(options_.requested_instances));
  tau_ = std::max(1e-9, best * options_.interval_s * options_.intervals / 4.0);
}

SchedulerProcess::~SchedulerProcess() {
  // Stop the transport thread (it mutates kv_ through the service,
  // which appends to wal_) before either is torn down.
  server_.reset();
  kv_.set_wal(nullptr);
}

template <typename F>
void SchedulerProcess::with_wal_retry(const char* what, F&& fn) {
  // A torn-write InjectedFault aborts the mutation without applying
  // it; the writer truncates its tail on the next append, so the
  // retry re-commits cleanly.
  with_retry(options_.wal_retry, what, metrics_, std::forward<F>(fn));
}

bool SchedulerProcess::init_primary(std::string* error) {
  std::vector<WalRecord> decisions;
  const WalReplayStats stats = replay_wal(options_.wal_path, kv_, &decisions,
                                          metrics_, /*repair=*/true);
  if (!stats.ok()) {
    if (error != nullptr) *error = stats.error;
    return false;
  }
  recovered_ = stats.kv_applied > 0 || stats.decisions > 0;

  // Re-step the deterministic core over the logged observations. The
  // recomputed advice must match what the log says was issued; the
  // log stays the truth either way (the rest of the system acted on
  // it), so a mismatch is flagged, not "fixed".
  for (const WalRecord& d : decisions) {
    AvailabilityObservation observed;
    observed.available = d.available;
    observed.preempted = d.preempted;
    observed.allocated = d.allocated;
    const SchedulerDecision dec =
        core_.step(d.interval, observed, options_.interval_s);
    if (dec.config.dp != d.advised_dp || dec.config.pp != d.advised_pp ||
        dec.stall_s != d.stall_s) {
      replay_divergence_ = true;
      metrics_->counter("sched.replay_divergences").inc();
    }
    const ParallelConfig logged{d.advised_dp, d.advised_pp};
    samples_ += core_.throughput_model().throughput(logged) *
                std::max(0.0, options_.interval_s - d.stall_s);
    advised_.push_back({d.interval, d.advised_dp, d.advised_pp, d.stall_s});
    prev_agents_ = d.agents;
    next_interval_ = d.interval + 1;
  }
  if (recovered_) {
    resumed_from_ = next_interval_;
    metrics_->counter("sched.recoveries").inc();
  }

  std::string wal_error;
  if (!wal_.open(options_.wal_path, &wal_error)) {
    if (error != nullptr) *error = wal_error;
    return false;
  }
  kv_.set_wal(&wal_);
  return true;
}

void SchedulerProcess::tick() {
  const int k = next_interval_;
  // Idempotent advance to the absolute interval boundary: a crash
  // between the advance and the decision commit re-runs tick k with
  // dt == 0 instead of double-advancing (and double-expiring leases).
  const double target = (k + 1) * options_.interval_s;
  const double dt = target - kv_.now();
  if (dt > 0.0) with_wal_retry("sched.clock", [&] { kv_.advance_clock(dt); });

  // Seat: renew while held, campaign otherwise. After a takeover the
  // dead incumbent's replayed key blocks the campaign until its lease
  // expires on the advancing clock — at most seat_ttl_s logical
  // seconds of leaderless (but still ticking) operation.
  try {
    if (seat_.is_holder()) {
      if (!seat_.renew()) metrics_->counter("ha.seat_lost").inc();
    } else if (seat_.campaign(options_.name)) {
      metrics_->counter("ha.seat_acquired").inc();
    }
  } catch (const InjectedFault&) {
    // Torn-write abort mid-campaign: stand again next tick.
  }

  // Observe liveness: the agent keys that survived the clock advance.
  // A SIGKILLed agent is exactly an absent key here — lease expiry is
  // the only death signal.
  const std::string agent_prefix = ns_ + "agent/";
  std::vector<std::string> agents;
  for (const std::string& key : kv_.list(agent_prefix))
    agents.push_back(key.substr(agent_prefix.size()));
  AvailabilityObservation observed;
  observed.available = static_cast<int>(agents.size());
  for (const std::string& id : prev_agents_)
    if (std::find(agents.begin(), agents.end(), id) == agents.end())
      ++observed.preempted;
  for (const std::string& id : agents)
    if (std::find(prev_agents_.begin(), prev_agents_.end(), id) ==
        prev_agents_.end())
      ++observed.allocated;

  const SchedulerDecision dec = core_.step(k, observed, options_.interval_s);

  // Commit point of interval k: the record carries what the core saw
  // and what it advised, so recovery re-steps identically.
  WalRecord rec;
  rec.type = WalRecordType::kDecision;
  rec.interval = k;
  rec.available = observed.available;
  rec.preempted = observed.preempted;
  rec.allocated = observed.allocated;
  rec.advised_dp = dec.config.dp;
  rec.advised_pp = dec.config.pp;
  rec.stall_s = dec.stall_s;
  rec.agents = agents;
  with_wal_retry("sched.decision", [&] { wal_.append(rec); });

  samples_ += core_.throughput_model().throughput(dec.config) *
              std::max(0.0, options_.interval_s - dec.stall_s);

  // The advice agents poll for (logged puts; replay reproduces them).
  with_wal_retry("sched.publish", [&] {
    kv_.put(ns_ + "scheduler/advised", dec.config.to_string());
  });
  with_wal_retry("sched.publish", [&] {
    kv_.put(ns_ + "scheduler/interval", std::to_string(k));
  });

  advised_.push_back({k, dec.config.dp, dec.config.pp, dec.stall_s});
  prev_agents_ = std::move(agents);
  next_interval_ = k + 1;
  ++ticks_run_;
  metrics_->counter("sched.ticks").inc();
}

struct SchedulerProcess::Server {
  std::unique_ptr<rpc::Transport> transport;
  std::unique_ptr<rpc::RpcServer> rpc_server;
  std::unique_ptr<rpc::KvService> service;
  ~Server() {
    if (rpc_server != nullptr) rpc_server->stop();
  }
};

bool SchedulerProcess::start_server() {
  if (options_.port < 0) return true;
  // A takeover binds the port the dead primary held; the OS reclaims
  // the listener when the process dies, but give it a few beats.
  constexpr int kBindAttempts = 50;
  for (int attempt = 1; attempt <= kBindAttempts; ++attempt) {
    auto server = std::make_unique<Server>();
    try {
      server->transport = rpc::make_tcp_transport(options_.port);
      server->transport->set_metrics(metrics_);
      if (options_.faults != nullptr)
        server->transport->set_fault_injector(options_.faults);
      server->rpc_server = std::make_unique<rpc::RpcServer>(*server->transport);
      server->rpc_server->set_metrics(metrics_);
      server->service = std::make_unique<rpc::KvService>(kv_);
      server->service->bind(*server->rpc_server);
      server->rpc_server->start();
      server_ = std::move(server);
      return true;
    } catch (const rpc::TransportError&) {
      sleep_ms(100);
    }
  }
  return false;
}

double SchedulerProcess::loss_for(double samples) const {
  return 0.3 + 6.0 / (1.0 + samples / tau_);
}

int SchedulerProcess::run_primary() {
  std::string error;
  if (!init_primary(&error)) {
    std::fprintf(stderr, "%s: wal init failed: %s\n", options_.name.c_str(),
                 error.c_str());
    return 1;
  }
  if (!start_server()) {
    std::fprintf(stderr, "%s: cannot bind port %d\n", options_.name.c_str(),
                 options_.port);
    return 1;
  }
  while (!done()) {
    tick();
    sleep_ms(options_.tick_wall_ms);
  }
  finish_run();
  return 0;
}

void SchedulerProcess::finish_run() {
  try {
    with_wal_retry("sched.publish",
                   [&] { kv_.put(ns_ + "control/shutdown", "done"); });
  } catch (const std::exception&) {
    // Retry budget spent on the very last write: the run still ends;
    // agents exit on their wall-clock cap instead.
  }
  // Let connected agents observe the shutdown key before the server
  // goes away.
  if (options_.port >= 0) sleep_ms(3 * options_.tick_wall_ms);
  std::string error;
  if (!options_.report_path.empty() && !write_report(&error))
    std::fprintf(stderr, "%s: report write failed: %s\n",
                 options_.name.c_str(), error.c_str());
  server_.reset();
}

int SchedulerProcess::run_standby() {
  fleet::StandbyMonitorOptions mopt;
  mopt.takeover_after_s = options_.takeover_after_s;
  mopt.min_failed_probes = options_.min_failed_probes;
  fleet::StandbyMonitor monitor(mopt);
  monitor.start(wall_s());

  // Out-of-band probe: a short-deadline KV get against the primary's
  // endpoint. One attempt per probe — the loop is the retry.
  auto transport = rpc::make_tcp_dial_transport(
      options_.port, /*connect_timeout_s=*/options_.probe_deadline_s);
  rpc::RpcClientOptions copt;
  copt.deadline_s = options_.probe_deadline_s;
  copt.retry.max_attempts = 1;
  copt.reconnect = true;  // tolerate a refused dial in the constructor

  while (true) {
    bool healthy = false;
    bool finished = false;
    try {
      rpc::RpcClient client(*transport, options_.name + "-probe", copt);
      rpc::KvClient kv(client);
      const auto shutdown = kv.get(ns_ + "control/shutdown");
      healthy = true;
      finished = shutdown.has_value();
    } catch (const std::exception&) {
    }
    monitor.record_probe(healthy, wall_s());
    metrics_->counter(healthy ? "ha.probes_ok" : "ha.probes_failed").inc();
    if (finished) return 0;  // the primary completed the run
    if (monitor.should_take_over(wall_s())) break;
    sleep_ms(options_.probe_interval_ms);
  }

  took_over_ = true;
  metrics_->counter("ha.takeovers").inc();
  return run_primary();
}

SchedulerRunReport SchedulerProcess::report() const {
  SchedulerRunReport r;
  r.name = options_.name;
  r.intervals_run = ticks_run_;
  r.resumed_from_interval = resumed_from_;
  r.recovered = recovered_;
  r.replay_divergence = replay_divergence_;
  r.took_over = took_over_;
  r.total_samples = samples_;
  r.final_loss = loss_for(samples_);
  r.converged = r.final_loss < 2.0;
  r.wal_truncated_records = static_cast<std::uint64_t>(
      metrics_->counter("kv.wal_truncated_records").value());
  r.lease_expirations = kv_.leases_expired();
  r.advised = advised_;
  return r;
}

bool SchedulerProcess::write_report(std::string* error) const {
  std::ofstream out(options_.report_path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + options_.report_path;
    return false;
  }
  out << report().to_text();
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "short write to " + options_.report_path;
    return false;
  }
  return true;
}

}  // namespace parcae
