// Command-line trace utility.
//
//   trace_tool stats  <file.csv | HA-DP|HA-SP|LA-DP|LA-SP|full-day>
//   trace_tool export <segment> <file.csv>
//   trace_tool gen    synthetic <events> <avg> <file.csv> [seed]
//   trace_tool gen    market <bid> <file.csv> [seed]
//   trace_tool plot   <file.csv | segment>
//   trace_tool events <file.csv | segment> <out.jsonl>
//   trace_tool merge  <out.trace.json> <in.trace.json>...
//   trace_tool wal    <file.wal>
//   trace_tool requests <file.jsonl>
//
// `plot` prints a terminal sparkline of the availability series.
// `wal` dumps and validates a scheduler write-ahead log
// (src/runtime/wal.h): one line per record, then a summary with the
// torn-tail truncation count — the offline half of the crash-recovery
// story in docs/robustness.md.
// `events` replays the trace through the Parcae scheduler and writes
// its structured EventLog (preemptions, decisions, migrations) as
// JSONL, one event per line.
// `merge` fuses per-process Chrome trace files (the scheduler side and
// the hub side of a run) into one Perfetto timeline with cross-process
// flow arrows recovered from the distributed-trace ids (see
// docs/observability.md).
// `requests` summarizes a per-request latency JSONL written by
// `serve_sim_cli requests_jsonl=` (docs/serving.md): request count,
// latency percentiles, SLO violations, and drops.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli.h"
#include "obs/trace_merge.h"
#include "runtime/parcae_policy.h"
#include "runtime/wal.h"
#include "trace/spot_market.h"
#include "trace/spot_trace.h"
#include "trace/trace_analysis.h"
#include "trace/trace_io.h"

using namespace parcae;

namespace {

std::optional<SpotTrace> resolve(const std::string& what) {
  std::string error;
  auto trace = resolve_trace(what, &error);
  if (!trace) std::fprintf(stderr, "cannot load '%s': %s\n", what.c_str(),
                           error.c_str());
  return trace;
}

void print_stats(const SpotTrace& trace) {
  const TraceStats s = trace.stats();
  std::printf("name:                %s\n", trace.name().c_str());
  std::printf("duration:            %.1f min\n", s.duration_s / 60.0);
  std::printf("capacity:            %d\n", trace.capacity());
  std::printf("avg instances:       %.2f\n", s.avg_instances);
  std::printf("min/max instances:   %d / %d\n", s.min_instances,
              s.max_instances);
  std::printf("preemption events:   %d (%d instances)\n", s.preemption_events,
              s.preempted_instances);
  std::printf("allocation events:   %d (%d instances)\n", s.allocation_events,
              s.allocated_instances);
  const TraceAnalysis a = analyze_trace(trace);
  const TraceRegime regime = classify_trace(trace);
  std::printf("regime:              %s availability, %s preemptions\n",
              regime.high_availability ? "High" : "Low",
              regime.dense_preemptions ? "Dense" : "Sparse");
  std::printf("stability:           %.0f%% stable intervals, longest run %d\n",
              100.0 * a.stable_interval_fraction, a.longest_stable_run);
  std::printf("autocorr (lag 1):    %.2f\n", a.availability_autocorr_lag1);
  if (a.preemption_interarrival_mean_s > 0.0)
    std::printf("preempt interarrival: %.0f s mean (CV %.2f)\n",
                a.preemption_interarrival_mean_s,
                a.preemption_interarrival_cv);
  std::printf("preempted inst/hour: %.1f\n", a.preempted_instances_per_hour);
}

void plot(const SpotTrace& trace) {
  static const char* kBars[] = {" ", "_", ".", "-", "=", "+", "*", "#"};
  const auto series = trace.availability_series();
  const int cap = trace.capacity();
  std::printf("availability (%d..%d over %zu min, capacity %d):\n",
              trace.stats().min_instances, trace.stats().max_instances,
              series.size(), cap);
  for (int n : series) {
    const int level = cap > 0 ? n * 7 / cap : 0;
    std::printf("%s", kBars[level < 0 ? 0 : (level > 7 ? 7 : level)]);
  }
  std::printf("\n");
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  trace_tool stats  <file|segment>\n"
               "  trace_tool export <segment> <file.csv>\n"
               "  trace_tool gen synthetic <events> <avg> <file.csv> [seed]\n"
               "  trace_tool gen market <bid> <file.csv> [seed]\n"
               "  trace_tool plot <file|segment>\n"
               "  trace_tool events <file|segment> <out.jsonl>\n"
               "  trace_tool merge <out.trace.json> <in.trace.json>...\n"
               "  trace_tool wal <file.wal>\n"
               "  trace_tool requests <file.jsonl>\n");
  return 2;
}

// Positional argument `text`, named `name` in the usage, read whole as
// a number; anything else prints "bad value for '<name>'" and exits 2.
template <typename T>
T number_arg(const char* text, const char* name) {
  T value{};
  if (!cli::parse_whole(text, value)) {
    std::fprintf(stderr, "bad value for '%s': '%s'\n", name, text);
    std::exit(2);
  }
  return value;
}

int dump_wal(const char* path) {
  const WalReadResult result = read_wal(path);
  if (!result.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path, result.error.c_str());
    return 1;
  }
  if (result.missing_header && result.truncated_records > 0) {
    std::fprintf(stderr, "%s: not a WAL file (bad header)\n", path);
    return 1;
  }
  std::size_t seq = 0;
  for (const WalRecord& r : result.records) {
    std::printf("%6zu %-15s", seq++, wal_record_type_name(r.type));
    switch (r.type) {
      case WalRecordType::kPut:
        std::printf(" key=%s value=%zuB", r.key.c_str(), r.value.size());
        break;
      case WalRecordType::kPutWithLease:
        std::printf(" key=%s value=%zuB lease=%llu", r.key.c_str(),
                    r.value.size(),
                    static_cast<unsigned long long>(r.lease_id));
        break;
      case WalRecordType::kCas:
        std::printf(" key=%s expected=%llu value=%zuB", r.key.c_str(),
                    static_cast<unsigned long long>(r.expected_version),
                    r.value.size());
        break;
      case WalRecordType::kErase:
        std::printf(" key=%s", r.key.c_str());
        break;
      case WalRecordType::kLeaseGrant:
        std::printf(" ttl=%.3fs", r.ttl_s);
        break;
      case WalRecordType::kLeaseKeepalive:
      case WalRecordType::kLeaseRevoke:
        std::printf(" lease=%llu",
                    static_cast<unsigned long long>(r.lease_id));
        break;
      case WalRecordType::kAdvanceClock:
        std::printf(" dt=%.3fs", r.dt_s);
        break;
      case WalRecordType::kDecision:
        std::printf(
            " interval=%d available=%d preempted=%d allocated=%d "
            "advised=%dx%d stall=%.3fs agents=%zu",
            r.interval, r.available, r.preempted, r.allocated, r.advised_dp,
            r.advised_pp, r.stall_s, r.agents.size());
        break;
    }
    std::printf("\n");
  }
  std::printf("%zu records, %llu valid bytes", result.records.size(),
              static_cast<unsigned long long>(result.valid_bytes));
  if (result.truncated_records > 0)
    std::printf(", TORN TAIL: %llu bytes dropped",
                static_cast<unsigned long long>(result.truncated_bytes));
  std::printf("\n");
  return result.truncated_records > 0 ? 3 : 0;
}

int merge_trace_files(int argc, char** argv) {
  // argv[2] = output, argv[3..] = per-process inputs. The process name
  // on the merged timeline is the input filename (basename).
  std::vector<obs::TraceMergeInput> inputs;
  for (int i = 3; i < argc; ++i) {
    FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot read %s\n", argv[i]);
      return 1;
    }
    obs::TraceMergeInput in;
    in.label = argv[i];
    if (const auto slash = in.label.find_last_of('/');
        slash != std::string::npos)
      in.label = in.label.substr(slash + 1);
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
      in.json.append(buf, n);
    std::fclose(f);
    inputs.push_back(std::move(in));
  }
  std::string error;
  obs::TraceMergeStats stats;
  const std::string merged = obs::merge_traces(inputs, &error, &stats);
  if (merged.empty()) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return 1;
  }
  FILE* out = std::fopen(argv[2], "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", argv[2]);
    return 1;
  }
  std::fwrite(merged.data(), 1, merged.size(), out);
  std::fclose(out);
  std::printf(
      "wrote %s (%zu processes, %zu events, %zu traces, "
      "%zu cross-process flow arrows)\n",
      argv[2], inputs.size(), stats.events, stats.traces, stats.flow_arrows);
  return 0;
}

int dump_events(const SpotTrace& trace, const char* path) {
  ParcaePolicy policy(model_by_name("GPT-2"), ParcaePolicyOptions{});
  SimulationOptions sim;
  sim.record_timeline = false;
  simulate(policy, trace, sim);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  const std::string jsonl = policy.telemetry().to_jsonl();
  std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu events, %zu dropped)\n", path,
              policy.telemetry().size(), policy.telemetry().dropped());
  return 0;
}

int summarize_requests(const char* path) {
  // The serving simulator writes one line per completion
  // {"t":..,"latency_ms":..,"ok":0|1} or drop {"t":..,"dropped":1}.
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "cannot read %s\n", path);
    return 1;
  }
  std::vector<double> latencies_ms;
  std::uint64_t completed = 0, ok = 0, dropped = 0, unparsed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find("\"dropped\":1") != std::string::npos) {
      ++dropped;
      continue;
    }
    const auto lat = line.find("\"latency_ms\":");
    if (lat == std::string::npos) {
      ++unparsed;
      continue;
    }
    latencies_ms.push_back(
        std::strtod(line.c_str() + lat + std::strlen("\"latency_ms\":"),
                    nullptr));
    ++completed;
    if (line.find("\"ok\":1") != std::string::npos) ++ok;
  }
  const auto pct = [&latencies_ms](double q) {
    if (latencies_ms.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(std::min<double>(
        static_cast<double>(latencies_ms.size()) - 1.0,
        q * static_cast<double>(latencies_ms.size())));
    std::nth_element(latencies_ms.begin(),
                     latencies_ms.begin() + static_cast<std::ptrdiff_t>(rank),
                     latencies_ms.end());
    return latencies_ms[rank];
  };
  const std::uint64_t late = completed - ok;
  std::printf("requests:        %llu (%llu completed, %llu dropped)\n",
              static_cast<unsigned long long>(completed + dropped),
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(dropped));
  std::printf("within SLO:      %llu (%.2f%% of arrivals)\n",
              static_cast<unsigned long long>(ok),
              completed + dropped > 0
                  ? 100.0 * static_cast<double>(ok) /
                        static_cast<double>(completed + dropped)
                  : 0.0);
  std::printf("SLO violations:  %llu (%llu late + %llu dropped)\n",
              static_cast<unsigned long long>(late + dropped),
              static_cast<unsigned long long>(late),
              static_cast<unsigned long long>(dropped));
  std::printf("latency:         p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n",
              pct(0.50), pct(0.95), pct(0.99));
  if (unparsed > 0)
    std::printf("unparsed lines:  %llu\n",
                static_cast<unsigned long long>(unparsed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string command = argv[1];

  if (command == "stats" || command == "plot") {
    const auto trace = resolve(argv[2]);
    if (!trace) return 1;
    if (command == "stats")
      print_stats(*trace);
    else
      plot(*trace);
    return 0;
  }
  if (command == "merge") {
    if (argc < 4) return usage();
    return merge_trace_files(argc, argv);
  }
  if (command == "wal") {
    return dump_wal(argv[2]);
  }
  if (command == "requests") {
    return summarize_requests(argv[2]);
  }
  if (command == "events") {
    if (argc < 4) return usage();
    const auto trace = resolve(argv[2]);
    if (!trace) return 1;
    return dump_events(*trace, argv[3]);
  }
  if (command == "export") {
    if (argc < 4) return usage();
    const auto trace = resolve(argv[2]);
    if (!trace) return 1;
    if (!save_trace(argv[3], *trace)) {
      std::fprintf(stderr, "cannot write %s\n", argv[3]);
      return 1;
    }
    std::printf("wrote %s\n", argv[3]);
    return 0;
  }
  if (command == "gen") {
    if (argc < 5) return usage();
    const std::string kind = argv[2];
    SpotTrace trace;
    if (kind == "synthetic") {
      if (argc < 6) return usage();
      Rng rng(argc > 6 ? number_arg<std::uint64_t>(argv[6], "seed") : 1);
      SyntheticTraceOptions options;
      options.preemption_events = number_arg<int>(argv[3], "events");
      options.target_availability = number_arg<double>(argv[4], "avg");
      trace = synthesize_trace(options, rng);
      if (!save_trace(argv[5], trace)) return 1;
      print_stats(trace);
      std::printf("wrote %s\n", argv[5]);
      return 0;
    }
    if (kind == "market") {
      Rng rng(argc > 5 ? number_arg<std::uint64_t>(argv[5], "seed") : 1);
      SpotMarketOptions options;
      options.bid = number_arg<double>(argv[3], "bid");
      const SpotMarketResult result = simulate_spot_market(options, rng);
      trace = result.trace;
      if (!save_trace(argv[4], trace)) return 1;
      print_stats(trace);
      std::printf("mean paid price: $%.3f/h\nwrote %s\n",
                  result.mean_paid_price, argv[4]);
      return 0;
    }
    return usage();
  }
  return usage();
}
