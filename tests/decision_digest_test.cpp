// Decision digest: one 64-bit FNV-1a hash per battery entry, over the
// configurations each entry advised and the results they produced,
// compared with the committed tests/data/decision_digest.txt.
//
// The battery covers every executor that drives the decision core:
// the experiment matrix (5 models x 4 segments x 5 systems), serving
// under MMPP load in proactive and oracle mode, the fleet in both
// regimes, a 256-instance pool under event-driven scheduling, and one
// run of the real SpotTrainingDriver. A change that moves any decision
// moves its entry's hash. Values are hashed as printed with %a, so a
// result must match bit for bit.
//
// Beyond decisions it pins the numbers the calibrated models produce:
// every matrix cell's bill (costs and GPU-hour ledger), the extended
// baselines and On-Demand, serving's cost and latency percentiles, the
// trace and market generators, the migration cost terms of Table 4,
// the throughput model per memory preset, and the adaptive predictor's
// forecasts.
//
// On a mismatch the test writes the computed file next to its binary
// and names the entries that moved. When the move is intended,
// re-baseline by copying that file over tests/data/decision_digest.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiment.h"
#include "baselines/elastic_dp_policy.h"
#include "baselines/ondemand_policy.h"
#include "fleet/fleet_sim.h"
#include "migration/cost_model.h"
#include "model/memory_model.h"
#include "model/model_profile.h"
#include "nn/dataset.h"
#include "parallel/throughput_model.h"
#include "predict/adaptive.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "serve/serving_sim.h"
#include "trace/spot_market.h"
#include "trace/spot_trace.h"

namespace parcae {
namespace {

// 64-bit FNV-1a over a canonical text rendering of what is added.
class Digest {
 public:
  Digest& add(std::string_view text) {
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
    return *this;
  }
  Digest& add(const ParallelConfig& config) {
    return add(std::to_string(config.dp) + "x" + std::to_string(config.pp) +
               ";");
  }
  Digest& add(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a;", value);
    return add(std::string_view(buf));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

using DigestMap = std::map<std::string, std::uint64_t>;

// What a run bills: both cost terms and the five GPU-hour categories.
Digest& add_bill(Digest& d, const SimulationResult& r) {
  return d.add(r.total_cost_usd)
      .add(r.support_cost_usd)
      .add(r.gpu_hours.effective)
      .add(r.gpu_hours.redundant)
      .add(r.gpu_hours.handling)
      .add(r.gpu_hours.lost)
      .add(r.gpu_hours.unutilized);
}

// One cell as run_matrix simulates it, but with the timeline kept, so
// the advised configs can be hashed.
SimulationResult simulate_cell(const PolicySpec& spec,
                               const ModelProfile& model,
                               const SpotTrace& trace) {
  auto policy = spec.make(model, trace);
  SimulationOptions sim;
  sim.units_per_sample = model.tokens_per_sample;
  obs::MetricsRegistry cell_metrics;
  sim.metrics = &cell_metrics;
  SimulationResult r = simulate(*policy, trace, sim);
  EXPECT_EQ(r.timeline.size(), trace.availability_series().size());
  return r;
}

// run_matrix's default cells: the advised configs and committed
// samples under matrix/, the bill under bill/.
void digest_matrix(DigestMap& out) {
  const MatrixOptions matrix;
  for (const ModelProfile& model : matrix.models)
    for (const SpotTrace& trace : matrix.traces)
      for (const PolicySpec& spec : matrix.policies) {
        const SimulationResult r = simulate_cell(spec, model, trace);
        const std::string cell =
            model.name + "/" + trace.name() + "/" + spec.name;
        Digest d;
        for (const IntervalRecord& rec : r.timeline) d.add(rec.config);
        d.add(r.committed_samples);
        out["matrix/" + cell] = d.value();
        Digest bill;
        out["bill/" + cell] = add_bill(bill, r).value();
      }
}

// The related-work baselines over the same grid, and On-Demand over a
// flat 32-instance trace priced on demand.
void digest_extended(DigestMap& out) {
  const MatrixOptions matrix;
  std::vector<PolicySpec> specs = extended_policies();
  specs.push_back({"Elastic-DP", [](const ModelProfile& m, const SpotTrace&) {
                     return std::make_unique<ElasticDpPolicy>(m);
                   }});
  for (const ModelProfile& model : matrix.models) {
    for (const SpotTrace& trace : matrix.traces)
      for (const PolicySpec& spec : specs) {
        const SimulationResult r = simulate_cell(spec, model, trace);
        Digest d;
        for (const IntervalRecord& rec : r.timeline) d.add(rec.config);
        d.add(r.committed_samples);
        out["extended/" + model.name + "/" + trace.name() + "/" + spec.name] =
            add_bill(d, r).value();
      }
    OnDemandPolicy policy(model);
    SimulationOptions sim;
    sim.units_per_sample = model.tokens_per_sample;
    sim.instances_are_ondemand = true;
    const SimulationResult r = simulate(policy, flat_trace(32, 3600.0), sim);
    Digest d;
    for (const IntervalRecord& rec : r.timeline) d.add(rec.config);
    d.add(r.committed_samples);
    out["ondemand/" + model.name] = add_bill(d, r).value();
  }
}

// GPT-2 serving with MMPP arrivals, set up as serve_sim_cli's
// defaults (seed 123, 60 rps base, burst x3).
void digest_serving(DigestMap& out) {
  for (const SpotTrace& trace : all_canonical_segments())
    for (const serve::ServingMode mode :
         {serve::ServingMode::kProactive, serve::ServingMode::kOracle}) {
      serve::ArrivalOptions arrival;
      arrival.kind = serve::ArrivalKind::kMmpp;
      arrival.seed = 123 ^ 0xa221ull;
      arrival.base_rps = 60.0;
      serve::ServingSchedulerOptions options;
      options.mode = mode;
      serve::ArrivalGenerator arrivals(arrival);
      serve::ServingScheduler scheduler(gpt2_profile(), options, &arrivals,
                                        &trace);
      const int intervals =
          static_cast<int>(trace.availability_series(60.0).size());
      const serve::ServingSimResult r = serve::simulate_serving(
          scheduler, arrivals, trace, intervals, serve::ServingSimOptions{});
      EXPECT_EQ(r.advised.size(), static_cast<std::size_t>(intervals));
      Digest d;
      for (const ParallelConfig& config : r.advised) d.add(config);
      d.add(static_cast<double>(r.requests_good));
      const std::string run =
          trace.name() + "/" +
          (mode == serve::ServingMode::kOracle ? "oracle" : "proactive");
      out["serve/" + run] = d.value();
      Digest bill;
      bill.add(r.spot_cost_usd).add(r.p50_ms).add(r.p95_ms).add(r.p99_ms);
      out["serve-bill/" + run] = bill.value();
    }
}

void digest_fleet(DigestMap& out) {
  const SpotTrace day = full_day_trace();
  fleet::FleetSimulator simulator(fleet::standard_fleet(10),
                                  fleet::FleetSimOptions{});
  for (const fleet::FleetSimResult& r :
       {simulator.run(day), simulator.run_static(day)}) {
    EXPECT_EQ(r.per_job.size(), 10u);
    Digest d;
    for (const fleet::FleetJobResult& job : r.per_job) {
      for (const int g : job.grants) d.add(std::to_string(g) + ";");
      d.add(job.committed_samples);
    }
    out["fleet/" + r.regime] = d.value();
  }
}

// Shaped like perfbench's pool256_churn: a bootstrap at 240 instances,
// then three 2-instance preemptions, each followed by a quiet window.
void digest_pool256(DigestMap& out) {
  std::vector<int> series(13, 240);
  for (const int level : {238, 236, 234}) series.insert(series.end(), 6, level);
  const SpotTrace pool =
      SpotTrace::from_minute_series("pool256", series, 256);
  ParcaePolicyOptions options;
  options.lookahead = 12;
  options.mc_trials = 64;
  options.event_driven = true;
  options.max_instances = 256;
  options.seed = 7;
  ParcaePolicy policy(gpt2_profile(), options);
  const SimulationResult r = simulate(policy, pool, {});
  EXPECT_EQ(r.timeline.size(), series.size());
  Digest d;
  for (const IntervalRecord& rec : r.timeline) d.add(rec.config);
  d.add(r.committed_samples);
  out["pool256/GPT-2/event"] = d.value();
}

void digest_driver(DigestMap& out) {
  const auto ds = nn::make_blobs(256, 12, 4, 0.5, 99);
  TrainingClusterOptions cluster;
  cluster.layer_sizes = {12, 32, 24, 4};
  cluster.epoch_size = ds.size();
  cluster.batch_size = 32;
  cluster.initial_instances = 0;
  SpotDriverOptions options;
  options.iterations_per_interval = 1;
  SpotTrainingDriver driver(cluster, &ds, options);
  const SpotDriverReport report =
      driver.run(canonical_segment(TraceSegment::kHighAvailDense));
  EXPECT_EQ(report.advised.size(), 60u);
  EXPECT_GT(report.iterations, 0);
  Digest d;
  for (const ParallelConfig& config : report.advised) d.add(config);
  d.add(std::to_string(report.iterations) + ";");
  d.add(static_cast<double>(report.final_loss));
  out["driver/HA-DP"] = d.value();
}

// The generators: fig14's synthetic traces (six intensities, three
// seeds each), the drift trace, and the spot market at two bids.
void digest_generators(DigestMap& out) {
  auto add_series = [](Digest& d, const SpotTrace& trace) -> Digest& {
    for (const int n : trace.availability_series())
      d.add(std::to_string(n) + ";");
    return d;
  };
  for (const int events : {3, 6, 12, 18, 24, 30}) {
    Digest d;
    for (int s = 0; s < 3; ++s) {
      Rng rng(1000 + 17 * static_cast<unsigned>(events) + s);
      SyntheticTraceOptions options;
      options.preemption_events = events;
      options.target_availability = 30.0;
      add_series(d, synthesize_trace(options, rng));
    }
    out["gen/synthetic/" + std::to_string(events) + "ev"] = d.value();
  }
  Digest drift;
  out["gen/drift"] = add_series(drift, synthesize_drift_trace()).value();
  for (const char* bid : {"0.95", "1.20"}) {
    Rng rng(100);
    SpotMarketOptions options;
    options.bid = std::stod(bid);
    const SpotMarketResult m = simulate_spot_market(options, rng);
    Digest d;
    add_series(d, m.trace);
    for (const double price : m.price_per_interval) d.add(price);
    d.add(m.mean_paid_price);
    out[std::string("gen/market/") + bid] = d.value();
  }
}

// Every migration cost term over Table 4's transitions, per model.
void digest_cost_model(DigestMap& out) {
  for (const ModelProfile& model : model_zoo()) {
    const CostEstimator est(model);
    const int min_p = std::max(
        1, MemoryModel(model, MemorySpec::parcae()).min_feasible_depth());
    const int p = std::min(model.partition_units, std::max(4, min_p));
    const ParallelConfig to{std::max(1, 24 / p), p};
    Digest d;
    for (const MigrationCostTerms& t :
         {est.intra_stage(to), est.inter_stage(to, 3),
          est.pipeline_migration({1, std::min(model.partition_units, p + 1)},
                                 to),
          est.instance_join(to), est.checkpoint_rollback(to)})
      d.add(t.start_process_s)
          .add(t.rendezvous_s)
          .add(t.cuda_init_s)
          .add(t.load_data_s)
          .add(t.build_model_s)
          .add(t.comm_groups_s)
          .add(t.state_transfer_s)
          .add(t.drain_s);
    out["cost-model/" + model.name] = d.value();
  }
}

// Throughput of every (D, P) with D*P <= 32, the best config per N and
// the serving batch times, per model and memory preset.
void digest_throughput(DigestMap& out) {
  const std::pair<const char*, MemorySpec> presets[] = {
      {"parcae", MemorySpec::parcae()},
      {"varuna", MemorySpec::varuna()},
      {"bamboo", MemorySpec::bamboo()}};
  for (const ModelProfile& model : model_zoo())
    for (const auto& [name, memory] : presets) {
      ThroughputModelOptions options;
      options.memory = memory;
      const ThroughputModel tm(model, options);
      Digest d;
      for (int p = 1; p <= 32; ++p)
        for (int dp = 1; dp * p <= 32; ++dp) d.add(tm.throughput({dp, p}));
      for (int n = 1; n <= 32; ++n) {
        const ParallelConfig best = tm.best_config(n);
        d.add(best).add(tm.throughput(best));
        for (const int batch : {1, 8}) {
          const ServeBatchTime bt = tm.serve_batch_time(n, batch);
          d.add(bt.occupancy_s).add(bt.latency_s);
        }
      }
      out["throughput/" + model.name + "/" + name] = d.value();
    }
}

// The adaptive predictor's 12-step forecasts from every 12-interval
// window of the drift trace.
void digest_adaptive(DigestMap& out) {
  const auto series = synthesize_drift_trace().availability_series_d();
  const auto pool = AdaptivePredictor::standard_pool(32.0);
  Digest d;
  for (std::size_t end = 12; end <= series.size(); end += 6)
    for (const double v :
         pool->forecast(std::span<const double>(series).subspan(end - 12, 12),
                        12))
      d.add(v);
  out["predict/adaptive/drift"] = d.value();
}

std::string render(const DigestMap& digests) {
  std::string text;
  for (const auto& [entry, hash] : digests) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %016" PRIx64 "\n", hash);
    text.append(entry).append(buf);
  }
  return text;
}

DigestMap parse(std::istream& in) {
  DigestMap digests;
  std::string entry, hex;
  while (in >> entry >> hex) digests[entry] = std::stoull(hex, nullptr, 16);
  return digests;
}

TEST(DecisionDigest, EveryBatteryEntryMatchesTheCommittedDigest) {
  DigestMap computed;
  digest_matrix(computed);
  digest_extended(computed);
  digest_serving(computed);
  digest_fleet(computed);
  digest_pool256(computed);
  digest_driver(computed);
  digest_generators(computed);
  digest_cost_model(computed);
  digest_throughput(computed);
  digest_adaptive(computed);

  std::ifstream committed_file(PARCAE_DIGEST_FILE);
  ASSERT_TRUE(committed_file.good()) << "cannot read " << PARCAE_DIGEST_FILE;
  const DigestMap committed = parse(committed_file);

  std::vector<std::string> moved;
  for (const auto& [entry, hash] : computed) {
    const auto it = committed.find(entry);
    if (it == committed.end())
      moved.push_back(entry + " (not in the committed file)");
    else if (it->second != hash)
      moved.push_back(entry);
  }
  for (const auto& [entry, hash] : committed)
    if (computed.count(entry) == 0)
      moved.push_back(entry + " (no longer computed)");
  if (moved.empty()) return;

  const std::string out_path = std::string(PARCAE_DIGEST_OUT_DIR) +
                               "/decision_digest.txt";
  std::ofstream(out_path) << render(computed);
  std::ostringstream message;
  message << moved.size() << " of " << computed.size()
          << " battery entries moved:\n";
  for (const std::string& entry : moved) message << "  " << entry << "\n";
  message << "computed digest written to " << out_path
          << "; if the move is intended, copy it over " << PARCAE_DIGEST_FILE;
  ADD_FAILURE() << message.str();
}

}  // namespace
}  // namespace parcae
