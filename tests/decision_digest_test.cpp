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
// On a mismatch the test writes the computed file next to its binary
// and names the entries that moved. When the move is intended,
// re-baseline by copying that file over tests/data/decision_digest.txt.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/experiment.h"
#include "fleet/fleet_sim.h"
#include "model/model_profile.h"
#include "nn/dataset.h"
#include "runtime/cluster_sim.h"
#include "runtime/parcae_policy.h"
#include "runtime/spot_driver.h"
#include "serve/serving_sim.h"
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

// run_matrix's default cells, simulated as run_matrix simulates them
// but with the timeline kept, so the advised configs can be hashed.
void digest_matrix(DigestMap& out) {
  const MatrixOptions matrix;
  for (const ModelProfile& model : matrix.models)
    for (const SpotTrace& trace : matrix.traces)
      for (const PolicySpec& spec : matrix.policies) {
        auto policy = spec.make(model, trace);
        SimulationOptions sim;
        sim.units_per_sample = model.tokens_per_sample;
        obs::MetricsRegistry cell_metrics;
        sim.metrics = &cell_metrics;
        const SimulationResult r = simulate(*policy, trace, sim);
        EXPECT_EQ(r.timeline.size(), trace.availability_series().size());
        Digest d;
        for (const IntervalRecord& rec : r.timeline) d.add(rec.config);
        d.add(r.committed_samples);
        out["matrix/" + model.name + "/" + trace.name() + "/" + spec.name] =
            d.value();
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
      out["serve/" + trace.name() + "/" +
          (mode == serve::ServingMode::kOracle ? "oracle" : "proactive")] =
          d.value();
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
  digest_serving(computed);
  digest_fleet(computed);
  digest_pool256(computed);
  digest_driver(computed);

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
