// Always-on metrics for the scheduler and its executor backends:
// named counters, gauges, and log-bucketed histograms.
//
// The paper's evaluation argues from internal quantities — optimizer
// latency (Figure 18b), migration cost breakdowns (Table 4),
// per-interval liveput — that ad-hoc printouts cannot surface from a
// long run. A MetricsRegistry owns named instruments; looking one up
// is a mutex-guarded map find (hold the returned reference to
// amortize it), recording into a counter or gauge is a single atomic
// op, and a histogram observation is one lock + one bucket increment;
// a batch of observations (a span of values) takes the lock once.
// Cheap enough to leave compiled in and enabled by default.
//
// Every registry belongs to a run: SchedulerCore, the simulators and
// the CLI tools record into the one they are handed (or one they own),
// so concurrent runs do not mix, and every recording site uses one
// fixed name. Runs sharing a registry (a fleet's jobs) each get a
// prefixing view of it. Recording only *observes* — it never feeds
// back into decisions, so golden outputs are bit-identical with
// metrics on.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace parcae::obs {

// Shortest round-trippable rendering shared by every numeric export
// path (CSV buckets, JSON snapshots, the Prometheus exporter), so a
// value serialized twice is byte-identical — no rounding drift between
// snapshot and exporter.
std::string format_metric_value(double value);

// Monotonically increasing sum (events seen, seconds stalled, ...).
class Counter {
 public:
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  void inc() { add(1.0); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-written value (instances available, pending stall, ...).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// One occupied histogram bucket at snapshot time. `index` is the
// log-bucket index (0 = underflow), `upper` its inclusive upper bound,
// `count` the observations that landed in it (not cumulative).
struct HistogramBucket {
  int index = 0;
  double upper = 0.0;
  std::uint64_t count = 0;
};

// Summary of one histogram at snapshot time. `buckets` holds the
// occupied buckets in ascending index order — enough for external
// tools (and FleetAggregator) to re-aggregate and re-derive quantiles
// exactly as the live Histogram would.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<HistogramBucket> buckets;

  // The linear-rank-over-buckets estimate Histogram::quantile
  // reports, taken from the sparse bucket list: merging two snapshots
  // and asking for p99 gives the answer the merged live histograms
  // would have given.
  double quantile(double q) const;
  // Folds `other` into this summary (bucket-wise sum, exact
  // min/max/count/sum merge) and recomputes mean/p50/p95/p99.
  void merge(const HistogramStats& other);
};

// Log-bucketed histogram: geometric buckets growing by 2^(1/8) (~9%
// per bucket) from 1e-6 up to ~1.8e13, so quantile estimates are
// within ~±4.5% of the true value anywhere in that range. Sum, min,
// and max are tracked exactly; values <= 1e-6 (including 0) land in
// the underflow bucket and report as min().
class Histogram {
 public:
  static constexpr int kBuckets = 512;

  void observe(double value);
  // Observes `values` in order under one lock: the same buckets, sum,
  // min and max as one observe() per value, but a concurrent reader
  // sees either none of the batch or all of it.
  void observe(std::span<const double> values);

  std::uint64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;
  double mean() const;
  // Linear rank over buckets, geometric midpoint within one; q in
  // [0, 1]. Returns 0 when empty. Equal to stats().quantile(q).
  double quantile(double q) const;
  HistogramStats stats() const;

  // Bucket geometry, public so snapshots and external tools can
  // re-aggregate: the inclusive upper bound and the geometric midpoint
  // (the quantile estimate) of bucket `index`.
  static double bucket_upper_bound(int index);
  static double bucket_midpoint(int index);

 private:
  static int bucket_index(double value);
  void observe_locked(double value);

  mutable std::mutex mu_;
  std::array<std::uint64_t, kBuckets + 1> buckets_{};  // [0] = underflow
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Everything a registry held at one moment, detached from it (safe to
// copy into results and reports).
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  // 0.0 when the name is absent.
  double counter_or(const std::string& name, double fallback = 0.0) const;
  double gauge_or(const std::string& name, double fallback = 0.0) const;

  // Aligned text tables (counters+gauges, then histograms with
  // count/mean/p50/p95/p99/max).
  std::string render() const;
  // "kind,name,count,sum,mean,p50,p95,p99,max" rows for every
  // instrument (counters/gauges fill only count=1 and sum), plus one
  // `bucket` row per occupied histogram bucket
  // ("bucket,<hist>.le=<upper>,<count>,<cumulative>") so external
  // tools can re-aggregate without the live registry.
  std::string to_csv() const;
  // Full-fidelity JSON object: {"counters":{...},"gauges":{...},
  // "histograms":{name:{count,sum,mean,min,max,p50,p95,p99,
  // "buckets":[{"index":i,"le":bound,"count":n},...]}}}. Numbers use
  // format_metric_value, byte-identical with the exporter.
  std::string to_json() const;
};

// Named-instrument registry. References returned by counter() /
// gauge() / histogram() stay valid until clear() (std::map nodes are
// stable); record through them freely from the hot path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // A view of `parent` (which must outlive it) that owns no
  // instruments: every lookup goes to the parent under `prefix` + name,
  // and snapshot() and clear() are the parent's. A fleet hands each job
  // a "job<j>." view of its shared registry, so jobs never collide.
  MetricsRegistry(MetricsRegistry& parent, std::string prefix);
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  // Current value, 0.0 when the instrument does not exist (the
  // queries never create instruments).
  double counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  MetricsSnapshot snapshot() const;
  void clear();

 private:
  std::string prefixed(std::string_view name) const;

  MetricsRegistry* parent_ = nullptr;  // non-null for a view
  std::string prefix_;
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace parcae::obs
