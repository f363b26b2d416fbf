#include "runtime/training_cluster.h"

#include <algorithm>
#include <cassert>

#include "nn/mlp.h"
#include "obs/metrics.h"

namespace parcae {
namespace {

// Slices a full layer-major vector into per-stage pieces given each
// stage's parameter count.
std::vector<std::vector<float>> slice_by_counts(
    const std::vector<float>& full, const std::vector<std::size_t>& counts) {
  std::vector<std::vector<float>> out;
  std::size_t offset = 0;
  for (std::size_t count : counts) {
    assert(offset + count <= full.size());
    out.emplace_back(full.begin() + static_cast<std::ptrdiff_t>(offset),
                     full.begin() + static_cast<std::ptrdiff_t>(offset + count));
    offset += count;
  }
  assert(offset == full.size());
  return out;
}

std::size_t stage_param_count(const std::vector<std::size_t>& dims) {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    n += dims[i] * dims[i + 1] + dims[i + 1];
  return n;
}

// The agent's published slot: "p<pipeline>s<stage>", or "spare".
std::string slot_name(const ParcaeAgent& agent) {
  if (!agent.assigned()) return "spare";
  std::string s = "p";
  s.append(std::to_string(agent.pipeline))
      .append("s")
      .append(std::to_string(agent.stage));
  return s;
}

}  // namespace

TrainingCluster::TrainingCluster(TrainingClusterOptions options,
                                 const nn::Dataset* dataset)
    : options_(std::move(options)),
      agent_key_prefix_("agent/"),
      dataset_(dataset),
      samples_(options_.epoch_size, options_.seed ^ 0x5511ull),
      rng_(options_.seed ^ 0xc1u) {
  // Bring up the hub endpoint (KvStore + ParcaePS pool behind an
  // RpcServer) and the one agent-side client before any agent exists:
  // allocate() below already registers through the wire.
  if (options_.transport == "tcp") {
    transport_ = rpc::make_tcp_transport(options_.rpc_port);
  } else if (options_.transport == "inproc") {
    transport_ = std::make_unique<rpc::InProcTransport>();
  } else {
    throw std::invalid_argument("TrainingCluster: unknown transport '" +
                                options_.transport + "' (inproc|tcp)");
  }
  server_ = std::make_unique<rpc::RpcServer>(*transport_);
  kv_service_ = std::make_unique<rpc::KvService>(kv_);
  ps_service_ = std::make_unique<rpc::PsService>();
  kv_service_->bind(*server_);
  ps_service_->bind(*server_);
  server_->start();
  rpc::RpcClientOptions client_options;
  client_options.deadline_s = options_.rpc_deadline_s;
  client_options.retry = options_.rpc_retry;
  rpc_client_ = std::make_unique<rpc::RpcClient>(*transport_, "agents",
                                                 client_options);
  kv_client_ = std::make_unique<rpc::KvClient>(*rpc_client_);
  ps_client_ = std::make_unique<rpc::PsClient>(*rpc_client_);
  allocate(options_.initial_instances);
}

TrainingCluster::~TrainingCluster() {
  // The metrics/fault sinks usually belong to the driver's decision
  // core, which is destroyed before this member — detach them so the
  // teardown path (connection close, server stop) cannot touch them.
  set_metrics(nullptr);
  set_fault_injector(nullptr);
  rpc_client_->close();
  server_->stop();
}

std::vector<int> TrainingCluster::allocate(int count) {
  std::vector<int> ids;
  for (int i = 0; i < count; ++i) {
    ParcaeAgent agent;
    agent.id = next_agent_id_++;
    agent.alive = true;
    try {
      agent.lease = kv_client_->lease_grant(options_.agent_lease_ttl_s);
    } catch (const std::exception&) {
      // Wire failure at registration: the agent runs lease-less until
      // the next heartbeat re-grants (counted; the driver may see a
      // false-positive death in between).
      agent.lease = 0;
      this->count("cluster.lease_grants_dropped");
    }
    ids.push_back(agent.id);
    if (agent.lease != 0)
      kv_put_retried(agent_key_prefix_ + std::to_string(agent.id), "spare",
                     agent.lease);
    agents_.push_back(std::move(agent));
  }
  return ids;
}

void TrainingCluster::preempt(const std::vector<int>& agent_ids) {
  for (int id : agent_ids) {
    for (auto& agent : agents_) {
      if (agent.id != id) continue;
      // A notice can arrive for an agent a fault already killed
      // silently; the notice is authoritative, so clean up its stale
      // coordination state instead of waiting for the lease to expire.
      if (!agent.alive && agent.lease == 0) continue;
      agent.alive = false;
      agent.module.reset();
      agent.optimizer.reset();
      agent.pipeline = agent.stage = -1;
      // Graceful: the scheduler was told, so the coordination state is
      // cleaned up eagerly (revoke erases the leased key with a
      // tombstone; the record is then rewritten lease-free).
      try {
        kv_client_->lease_revoke(agent.lease);
      } catch (const std::exception&) {
        // Revocation lost on the wire: the lease expires on its own
        // later, so cleanup is merely delayed.
        count("cluster.kv_publish_dropped");
      }
      agent.lease = 0;
      kv_put_retried(agent_key_prefix_ + std::to_string(id), "preempted");
    }
  }
}

void TrainingCluster::kill(const std::vector<int>& agent_ids) {
  for (int id : agent_ids) {
    for (auto& agent : agents_) {
      if (agent.id != id || !agent.alive) continue;
      agent.alive = false;
      agent.module.reset();
      agent.optimizer.reset();
      agent.pipeline = agent.stage = -1;
      // Silent death: no KvStore write, no lease revocation. The
      // heartbeats stop and the lease expires on its own — that
      // expiry is how the rest of the system finds out.
      count("cluster.unpredicted_kills");
    }
  }
}

int TrainingCluster::kill_random_alive() {
  std::vector<int> candidates;
  for (const auto& agent : agents_)
    if (agent.assigned()) candidates.push_back(agent.id);
  if (candidates.empty())
    for (const auto& agent : agents_)
      if (agent.alive) candidates.push_back(agent.id);
  if (candidates.empty() || faults_ == nullptr) return -1;
  const int victim = candidates[static_cast<std::size_t>(
      faults_->pick(candidates.size()))];
  kill({victim});
  return victim;
}

void TrainingCluster::set_fault_injector(FaultInjector* faults) {
  faults_ = faults;
  kv_.set_fault_injector(faults);
  ps_service_->set_fault_injector(faults);
  transport_->set_fault_injector(faults);
}

void TrainingCluster::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  transport_->set_metrics(metrics);
  server_->set_metrics(metrics);
  rpc_client_->set_metrics(metrics);
}

void TrainingCluster::set_tracers(obs::TraceWriter* agent_tracer,
                                  obs::TraceWriter* hub_tracer) {
  rpc_client_->set_tracer(agent_tracer);
  server_->set_tracer(hub_tracer);
}

void TrainingCluster::heartbeat() {
  for (auto& agent : agents_) {
    if (!agent.alive) continue;
    bool renewed = false;
    if (agent.lease != 0) {
      try {
        renewed =
            with_retry(options_.retry, "kv.keepalive", metrics_,
                       [&] { return kv_client_->lease_keepalive(agent.lease); });
      } catch (const InjectedFault&) {
        // Heartbeat lost this interval; the lease may now expire
        // spuriously (a false-positive death the driver will observe).
        count("cluster.heartbeats_dropped");
        continue;
      } catch (const rpc::TransportError&) {
        count("cluster.heartbeats_dropped");
        continue;
      }
    }
    if (!renewed) {
      // The lease already expired (e.g. dropped heartbeats) or was
      // never granted (a dropped registration): a live agent cannot
      // revive it and must re-register.
      try {
        agent.lease = kv_client_->lease_grant(options_.agent_lease_ttl_s);
      } catch (const std::exception&) {
        agent.lease = 0;
        count("cluster.lease_grants_dropped");
        continue;
      }
      kv_put_retried(agent_key_prefix_ + std::to_string(agent.id),
                     slot_name(agent), agent.lease);
      count("cluster.leases_reregistered");
    }
  }
}

void TrainingCluster::kv_put_retried(const std::string& key,
                                     const std::string& value) {
  try {
    with_retry(options_.retry, "kv.put", metrics_,
               [&] { kv_client_->put(key, value); });
  } catch (const InjectedFault&) {
    // Coordination state goes stale; liveness still flows through the
    // lease machinery, so this is survivable (and counted).
    count("cluster.kv_publish_dropped");
  } catch (const rpc::TransportError&) {
    count("cluster.kv_publish_dropped");
  }
}

void TrainingCluster::kv_put_retried(const std::string& key,
                                     const std::string& value,
                                     std::uint64_t lease_id) {
  try {
    with_retry(options_.retry, "kv.put", metrics_,
               [&] { kv_client_->put_with_lease(key, value, lease_id); });
  } catch (const InjectedFault&) {
    count("cluster.kv_publish_dropped");
  } catch (const rpc::TransportError&) {
    count("cluster.kv_publish_dropped");
  }
}

void TrainingCluster::record_event(EventCategory category,
                                   std::string message,
                                   std::map<std::string, std::string> fields) {
  if (events_ != nullptr)
    events_->record(now_s_, category, std::move(message), std::move(fields));
}

void TrainingCluster::count(const char* name) {
  if (metrics_ != nullptr) metrics_->counter(name).inc();
}

void TrainingCluster::preempt_random(int count, Rng& rng) {
  std::vector<int> alive;
  for (const auto& agent : agents_)
    if (agent.alive) alive.push_back(agent.id);
  rng.shuffle(alive);
  alive.resize(std::min<std::size_t>(alive.size(),
                                     static_cast<std::size_t>(count)));
  preempt(alive);
}

int TrainingCluster::alive_count() const {
  int n = 0;
  for (const auto& agent : agents_) n += agent.alive ? 1 : 0;
  return n;
}

int TrainingCluster::spare_count() const {
  int n = 0;
  for (const auto& agent : agents_) n += (agent.alive && !agent.assigned());
  return n;
}

int TrainingCluster::pipeline_depth_limit() const {
  return static_cast<int>(options_.layer_sizes.size()) - 1;
}

ParcaeAgent* TrainingCluster::agent_at(int pipeline, int stage) {
  for (auto& agent : agents_)
    if (agent.assigned() && agent.pipeline == pipeline &&
        agent.stage == stage)
      return &agent;
  return nullptr;
}

const ParcaeAgent* TrainingCluster::agent_at(int pipeline, int stage) const {
  return const_cast<TrainingCluster*>(this)->agent_at(pipeline, stage);
}

TrainingCluster::StageState TrainingCluster::normalized(StageState state) {
  // A never-stepped Adam serializes as [t] alone (moments are lazily
  // allocated); anything but a full [t, m..., v...] record is treated
  // as a fresh optimizer. Fault-driven reconfigures can observe such
  // states (a kill before the first iteration of a new config).
  if (state.optimizer_state.size() != 1 + 2 * state.parameters.size())
    state.optimizer_state.clear();
  return state;
}

TrainingCluster::StageState TrainingCluster::stage_state_from_ps(
    int stage) const {
  assert(stage >= 0 && stage < ps_service_->stage_count());
  // A rollback restore must not fail on a flaky wire: stack the
  // application-level schedule on the client's own resend budget
  // (metrics-less — the pinned retry.* counters track only the §8
  // recoverable operations).
  const rpc::PsStageState pulled =
      with_retry(options_.rpc_retry, "ps.pull", nullptr,
                 [&] { return ps_client_->pull(stage); });
  StageState state;
  state.parameters = pulled.parameters;
  state.optimizer_state = pulled.optimizer_state;
  return normalized(std::move(state));
}

std::vector<TrainingCluster::StageState> TrainingCluster::collect_stage_states(
    bool& used_ps) {
  std::vector<StageState> states;
  if (!config_.valid()) {
    // Suspended or never started: everything comes from ParcaePS (or
    // the genesis initialization at first start, handled by caller).
    const int stages = ps_service_->stage_count();
    for (int s = 0; s < stages; ++s) {
      states.push_back(stage_state_from_ps(s));
      used_ps = true;
    }
    return states;
  }
  for (int s = 0; s < config_.pp; ++s) {
    const ParcaeAgent* survivor = nullptr;
    for (int d = 0; d < config_.dp && survivor == nullptr; ++d)
      survivor = agent_at(d, s);
    if (survivor != nullptr) {
      StageState state;
      state.parameters = survivor->module->flat_parameters();
      state.optimizer_state = survivor->optimizer->state();
      states.push_back(normalized(std::move(state)));
    } else {
      states.push_back(stage_state_from_ps(s));
      used_ps = true;
      ++rollbacks_;
    }
  }
  return states;
}

void TrainingCluster::publish_assignments() {
  kv_put_retried("cluster/config",
                 config_.valid() ? config_.to_string() : "suspended");
  for (const auto& agent : agents_) {
    if (!agent.alive) continue;
    kv_put_retried(agent_key_prefix_ + std::to_string(agent.id),
                   slot_name(agent));
  }
}

MigrationKind TrainingCluster::reconfigure(ParallelConfig target) {
  if (!target.valid()) {
    for (auto& agent : agents_) {
      if (!agent.assigned()) continue;
      agent.pipeline = agent.stage = -1;
      agent.module.reset();
      agent.optimizer.reset();
    }
    // State survives in ParcaePS; training resumes from there later.
    config_ = kIdleConfig;
    publish_assignments();
    return MigrationKind::kSuspend;
  }
  assert(target.pp >= 1 && target.pp <= pipeline_depth_limit());
  assert(target.instances() <= alive_count());

  bool used_ps = false;
  MigrationKind kind = MigrationKind::kNone;

  const bool depth_change = !config_.valid() || target.pp != config_.pp;

  // Per-stage state for the *target* partition.
  std::vector<StageState> new_states;
  if (depth_change) {
    // Assemble the full model and re-shard it.
    std::vector<float> full_params;
    std::vector<float> full_m;
    std::vector<float> full_v;
    long long opt_t = 0;
    if (!config_.valid() && ps_service_->stage_count() == 0) {
      // Genesis: initialize exactly like the monolithic Mlp would, so
      // distributed training is comparable to serial training.
      nn::Mlp reference(options_.layer_sizes,
                        std::make_unique<nn::Sgd>(0.0f), options_.seed);
      full_params = reference.flat_parameters();
    } else {
      const std::vector<StageState> old = collect_stage_states(used_ps);
      for (const auto& s : old)
        full_params.insert(full_params.end(), s.parameters.begin(),
                           s.parameters.end());
      // Optimizer states: [t, m..., v...] per stage; concatenate the
      // m and v halves in stage (= layer) order.
      bool any_state = false;
      for (const auto& s : old) any_state |= !s.optimizer_state.empty();
      if (any_state) {
        for (const auto& s : old) {
          if (s.optimizer_state.empty()) {
            // Fresh stage (should not happen mid-run); zero-fill.
            full_m.insert(full_m.end(), s.parameters.size(), 0.0f);
            full_v.insert(full_v.end(), s.parameters.size(), 0.0f);
            continue;
          }
          opt_t = static_cast<long long>(s.optimizer_state[0]);
          const std::size_t n = s.parameters.size();
          assert(s.optimizer_state.size() == 1 + 2 * n);
          full_m.insert(full_m.end(), s.optimizer_state.begin() + 1,
                        s.optimizer_state.begin() + 1 +
                            static_cast<std::ptrdiff_t>(n));
          full_v.insert(full_v.end(),
                        s.optimizer_state.begin() + 1 +
                            static_cast<std::ptrdiff_t>(n),
                        s.optimizer_state.end());
        }
      }
    }

    stage_dims_ = nn::split_layer_dims(options_.layer_sizes, target.pp);
    assert(static_cast<int>(stage_dims_.size()) == target.pp);
    std::vector<std::size_t> counts;
    for (const auto& dims : stage_dims_) counts.push_back(stage_param_count(dims));
    const auto param_slices = slice_by_counts(full_params, counts);
    std::vector<std::vector<float>> m_slices, v_slices;
    if (!full_m.empty()) {
      m_slices = slice_by_counts(full_m, counts);
      v_slices = slice_by_counts(full_v, counts);
    }
    for (int s = 0; s < target.pp; ++s) {
      StageState state;
      state.parameters = param_slices[static_cast<std::size_t>(s)];
      if (!m_slices.empty()) {
        state.optimizer_state.push_back(static_cast<float>(opt_t));
        state.optimizer_state.insert(state.optimizer_state.end(),
                                     m_slices[static_cast<std::size_t>(s)]
                                         .begin(),
                                     m_slices[static_cast<std::size_t>(s)]
                                         .end());
        state.optimizer_state.insert(state.optimizer_state.end(),
                                     v_slices[static_cast<std::size_t>(s)]
                                         .begin(),
                                     v_slices[static_cast<std::size_t>(s)]
                                         .end());
      }
      new_states.push_back(std::move(state));
    }
    kind = used_ps ? MigrationKind::kRollback : MigrationKind::kPipeline;

    // Drop all current assignments (everyone rebuilds).
    for (auto& agent : agents_) {
      if (!agent.assigned()) continue;
      agent.pipeline = agent.stage = -1;
      agent.module.reset();
      agent.optimizer.reset();
    }
  } else {
    // Same depth: recover in place. First demote surplus replicas.
    for (auto& agent : agents_) {
      if (agent.assigned() && agent.pipeline >= target.dp) {
        agent.pipeline = agent.stage = -1;
        agent.module.reset();
        agent.optimizer.reset();
        kind = std::max(kind, MigrationKind::kIntraStage);
      }
    }
    // Collect states for stages that need new replicas.
    new_states.resize(static_cast<std::size_t>(target.pp));
    for (int s = 0; s < target.pp; ++s) {
      const ParcaeAgent* survivor = nullptr;
      for (int d = 0; d < config_.dp && survivor == nullptr; ++d)
        survivor = agent_at(d, s);
      if (survivor != nullptr) {
        StageState state;
        state.parameters = survivor->module->flat_parameters();
        state.optimizer_state = survivor->optimizer->state();
        new_states[static_cast<std::size_t>(s)] =
            normalized(std::move(state));
      } else {
        new_states[static_cast<std::size_t>(s)] = stage_state_from_ps(s);
        used_ps = true;
        ++rollbacks_;
      }
    }
  }

  // Rebuild the per-stage ParcaePS replicas for the new partition
  // *before* enacting the plan: an aborted migration falls back to
  // restoring every slot from exactly these replicas. ps.reset is the
  // one call that must not be lost (a missing pool fails every later
  // pull), so it stacks the retry schedules like the rollback pull.
  if (depth_change || ps_service_->stage_count() != target.pp) {
    std::vector<rpc::PsStageState> stages;
    for (int s = 0; s < target.pp; ++s) {
      rpc::PsStageState stage;
      stage.parameters = new_states[static_cast<std::size_t>(s)].parameters;
      stage.optimizer_state =
          new_states[static_cast<std::size_t>(s)].optimizer_state;
      stages.push_back(std::move(stage));
    }
    with_retry(options_.rpc_retry, "ps.reset", nullptr, [&] {
      ps_client_->reset(options_.learning_rate, stages);
    });
  }

  // Installs a stage replica on the first free agent.
  const auto install = [&](int d, int s, const StageState& state) {
    ParcaeAgent* recruit = nullptr;
    for (auto& agent : agents_)
      if (agent.alive && !agent.assigned()) {
        recruit = &agent;
        break;
      }
    assert(recruit != nullptr);  // guaranteed by the instances() check
    recruit->pipeline = d;
    recruit->stage = s;
    recruit->module = std::make_unique<nn::StageModule>(
        stage_dims_[static_cast<std::size_t>(s)],
        s + 1 == target.pp, /*seed=*/1);
    recruit->module->set_flat_parameters(state.parameters);
    recruit->optimizer = std::make_unique<nn::Adam>(options_.learning_rate);
    if (!state.optimizer_state.empty()) {
      recruit->optimizer->initialize(recruit->module->params());
      recruit->optimizer->load_state(state.optimizer_state);
    }
  };

  // Fill every (pipeline, stage) slot, reusing surviving replicas. A
  // "cluster.kill_mid_migration" firing lands between two slot copies
  // — a preemption arriving while the plan is half-executed.
  bool aborted = false;
  for (int d = 0; d < target.dp && !aborted; ++d) {
    for (int s = 0; s < target.pp && !aborted; ++s) {
      if (!depth_change && agent_at(d, s) != nullptr) continue;  // intact
      if (faults_ != nullptr &&
          faults_->should_fire("cluster.kill_mid_migration")) {
        const int victim = kill_random_alive();
        count("cluster.migrations_aborted");
        record_event(EventCategory::kWarning,
                     "mid-migration kill: plan aborted",
                     {{"victim", std::to_string(victim)},
                      {"target", target.to_string()}});
        aborted = true;
        break;
      }
      install(d, s, new_states[static_cast<std::size_t>(s)]);
      if (!depth_change && kind < MigrationKind::kInterStage)
        kind = MigrationKind::kInterStage;
    }
  }

  if (aborted) {
    // Abandon the partially-executed plan: drop every assignment, then
    // fall back to a full kRollback restore from the ParcaePS replicas
    // (which mirror every committed iteration, so nothing is lost).
    for (auto& agent : agents_) {
      if (!agent.assigned()) continue;
      agent.pipeline = agent.stage = -1;
      agent.module.reset();
      agent.optimizer.reset();
    }
    if (target.instances() > alive_count()) {
      // The kill made the target infeasible; pause and hold until the
      // scheduler re-plans with the new availability.
      config_ = kIdleConfig;
      publish_assignments();
      record_event(EventCategory::kMigration,
                   "rollback infeasible after mid-migration kill; suspended",
                   {{"target", target.to_string()}});
      return MigrationKind::kSuspend;
    }
    for (int s = 0; s < target.pp; ++s) {
      const StageState state = stage_state_from_ps(s);
      for (int d = 0; d < target.dp; ++d) install(d, s, state);
    }
    ++rollbacks_;
    used_ps = true;
    record_event(EventCategory::kMigration,
                 "aborted migration recovered via ParcaePS rollback",
                 {{"target", target.to_string()}});
  }

  if (used_ps) kind = MigrationKind::kRollback;

  config_ = target;
  publish_assignments();
  return kind;
}

bool TrainingCluster::assignment_intact() const {
  if (!config_.valid()) return false;
  for (int d = 0; d < config_.dp; ++d)
    for (int s = 0; s < config_.pp; ++s)
      if (agent_at(d, s) == nullptr) return false;
  return true;
}

std::optional<IterationOutcome> TrainingCluster::train_iteration() {
  if (!assignment_intact()) return std::nullopt;
  if (samples_.epoch_complete()) samples_.start_next_epoch();
  const SampleManager::Lease lease = samples_.lease(options_.batch_size);
  if (lease.id == 0) return std::nullopt;

  const int dp = config_.dp;
  const int pp = config_.pp;
  const std::size_t n = lease.samples.size();

  // Per-stage weighted-mean gradients across the data-parallel shards.
  std::vector<std::vector<float>> grad_sums(static_cast<std::size_t>(pp));
  double loss_sum = 0.0;

  const std::size_t base = n / static_cast<std::size_t>(dp);
  const std::size_t remainder = n % static_cast<std::size_t>(dp);
  std::size_t cursor = 0;
  for (int d = 0; d < dp; ++d) {
    const std::size_t share =
        base + (static_cast<std::size_t>(d) < remainder ? 1 : 0);
    if (share == 0) continue;
    const std::vector<std::size_t> shard(
        lease.samples.begin() + static_cast<std::ptrdiff_t>(cursor),
        lease.samples.begin() + static_cast<std::ptrdiff_t>(cursor + share));
    cursor += share;

    nn::Matrix act = dataset_->gather(shard);
    const std::vector<int> labels = dataset_->gather_labels(shard);
    for (int s = 0; s < pp; ++s) {
      ParcaeAgent* agent = agent_at(d, s);
      assert(agent != nullptr);
      agent->module->zero_grad();
      act = agent->module->forward(act);
    }
    nn::SoftmaxCrossEntropy loss;
    const float shard_loss = loss.forward(act, labels);
    const double weight = static_cast<double>(share) / static_cast<double>(n);
    loss_sum += weight * shard_loss;
    nn::Matrix grad = loss.backward();
    for (int s = pp; s-- > 0;) {
      ParcaeAgent* agent = agent_at(d, s);
      grad = agent->module->backward(grad);
      const std::vector<float> g = agent->module->flat_gradients();
      auto& sum = grad_sums[static_cast<std::size_t>(s)];
      if (sum.empty()) sum.assign(g.size(), 0.0f);
      for (std::size_t i = 0; i < g.size(); ++i)
        sum[i] += static_cast<float>(weight) * g[i];
    }
  }

  // An unpredicted zero-grace kill landing here destroys the in-flight
  // iteration: no optimizer state has changed yet, so the lease is
  // abandoned and its samples rejoin the pool for re-leasing —
  // exactly-once accounting is preserved by construction.
  if (faults_ != nullptr &&
      faults_->should_fire("cluster.kill_mid_iteration")) {
    const int victim = kill_random_alive();
    samples_.abort(lease.id);
    count("cluster.mid_iteration_kills");
    record_event(EventCategory::kWarning,
                 "mid-iteration kill: in-flight lease aborted",
                 {{"victim", std::to_string(victim)},
                  {"samples", std::to_string(n)}});
    return std::nullopt;
  }

  // Synchronous update: every replica of a stage applies the same
  // averaged gradient with its own (identical) Adam replica, keeping
  // replicas bit-for-bit consistent; ParcaePS mirrors the update.
  for (int s = 0; s < pp; ++s) {
    const auto& g = grad_sums[static_cast<std::size_t>(s)];
    for (int d = 0; d < dp; ++d) {
      ParcaeAgent* agent = agent_at(d, s);
      agent->module->set_flat_gradients(g);
      agent->optimizer->step(agent->module->params());
    }
    // Push budget exhausted (below): the trainer already stepped, so
    // the replica is refreshed from the trainer's post-update state (a
    // full-state upload instead of the cheap gradient push) — the
    // checkpoint never lags a committed iteration.
    const auto refresh_from_trainer = [&] {
      ParcaeAgent* agent = agent_at(0, s);
      try {
        ps_client_->restore(s, agent->module->flat_parameters(),
                            agent->optimizer->state());
        count("cluster.ps_refreshes");
        record_event(EventCategory::kCheckpoint,
                     "ps push exhausted retries; replica refreshed from "
                     "trainer state",
                     {{"stage", std::to_string(s)}});
      } catch (const std::exception&) {
        // Even the refresh was lost on the wire. The replica now lags
        // this iteration; the next successful push or refresh catches
        // it up, and a rollback meanwhile replays one extra batch.
        count("cluster.ps_refreshes_dropped");
      }
    };
    try {
      with_retry(options_.retry, "ps.push", metrics_,
                 [&] { ps_client_->push(s, g); });
    } catch (const InjectedFault&) {
      refresh_from_trainer();
    } catch (const rpc::TransportError&) {
      refresh_from_trainer();
    }
  }

  samples_.commit(lease.id);
  IterationOutcome outcome;
  outcome.loss = static_cast<float>(loss_sum);
  outcome.samples = n;
  outcome.epoch_finished = samples_.epoch_complete();
  return outcome;
}

float TrainingCluster::eval_loss(const nn::Matrix& x,
                                 const std::vector<int>& labels) {
  assert(config_.valid());
  nn::Matrix act = x;
  for (int s = 0; s < config_.pp; ++s) {
    ParcaeAgent* agent = agent_at(0, s);
    assert(agent != nullptr);
    act = agent->module->forward(act);
  }
  nn::SoftmaxCrossEntropy loss;
  return loss.forward(act, labels);
}

bool TrainingCluster::replicas_consistent() const {
  if (!config_.valid()) return true;
  for (int s = 0; s < config_.pp; ++s) {
    const ParcaeAgent* reference = agent_at(0, s);
    if (reference == nullptr) return false;
    const std::vector<float> expect = reference->module->flat_parameters();
    for (int d = 1; d < config_.dp; ++d) {
      const ParcaeAgent* replica = agent_at(d, s);
      if (replica == nullptr) return false;
      if (replica->module->flat_parameters() != expect) return false;
    }
  }
  return true;
}

std::vector<float> TrainingCluster::assembled_parameters() const {
  std::vector<float> out;
  if (!config_.valid()) return out;
  for (int s = 0; s < config_.pp; ++s) {
    const ParcaeAgent* agent = agent_at(0, s);
    assert(agent != nullptr);
    const std::vector<float> p = agent->module->flat_parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace parcae
