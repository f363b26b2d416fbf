#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/table.h"
#include "obs/json_util.h"

namespace parcae::obs {

namespace {
// Smallest bucket bound and per-bucket growth factor (2^(1/8)).
constexpr double kMinBound = 1e-6;
const double kGrowth = std::pow(2.0, 1.0 / 8.0);
const double kInvLogGrowth = 1.0 / std::log(kGrowth);
}  // namespace

std::string format_metric_value(double value) {
  char buf[40];
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  // %.17g round-trips every double; prefer the shortest of %.15g/%.17g
  // that parses back exactly, so common values stay human-sized.
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  if (std::strtod(buf, nullptr) != value)
    std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Histogram::bucket_index(double value) {
  if (!(value > kMinBound)) return 0;  // underflow (and NaN) bucket
  const int idx =
      1 + static_cast<int>(std::floor(std::log(value / kMinBound) *
                                      kInvLogGrowth));
  return std::clamp(idx, 1, kBuckets);
}

double Histogram::bucket_midpoint(int index) {
  if (index <= 0) return kMinBound;
  // Geometric midpoint of [kMinBound*g^(i-1), kMinBound*g^i].
  return kMinBound * std::pow(kGrowth, static_cast<double>(index) - 0.5);
}

double Histogram::bucket_upper_bound(int index) {
  if (index <= 0) return kMinBound;
  return kMinBound * std::pow(kGrowth, static_cast<double>(index));
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  observe_locked(value);
}

void Histogram::observe(std::span<const double> values) {
  std::lock_guard<std::mutex> lock(mu_);
  for (double value : values) observe_locked(value);
}

// Requires mu_ held.
void Histogram::observe_locked(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::quantile(double q) const { return stats().quantile(q); }

HistogramStats Histogram::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  HistogramStats s;
  s.count = count_;
  if (count_ == 0) return s;
  s.sum = sum_;
  s.mean = sum_ / static_cast<double>(count_);
  s.min = min_;
  s.max = max_;
  for (int i = 0; i <= kBuckets; ++i) {
    const std::uint64_t n = buckets_[static_cast<std::size_t>(i)];
    if (n != 0) s.buckets.push_back({i, bucket_upper_bound(i), n});
  }
  s.p50 = s.quantile(0.50);
  s.p95 = s.quantile(0.95);
  s.p99 = s.quantile(0.99);
  return s;
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(
             std::clamp(q, 0.0, 1.0) * static_cast<double>(count))));
  if (target <= 1) return min;
  if (target >= count) return max;
  std::uint64_t cum = 0;
  for (const HistogramBucket& b : buckets) {
    cum += b.count;
    if (cum >= target)
      return std::clamp(Histogram::bucket_midpoint(b.index), min, max);
  }
  return max;
}

void HistogramStats::merge(const HistogramStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  // Bucket-wise sum: both lists are ascending by index.
  std::vector<HistogramBucket> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t i = 0, j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].index < other.buckets[j].index)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               other.buckets[j].index < buckets[i].index) {
      merged.push_back(other.buckets[j++]);
    } else {
      HistogramBucket b = buckets[i++];
      b.count += other.buckets[j++].count;
      merged.push_back(b);
    }
  }
  buckets = std::move(merged);
  mean = sum / static_cast<double>(count);
  p50 = quantile(0.50);
  p95 = quantile(0.95);
  p99 = quantile(0.99);
}

double MetricsSnapshot::counter_or(const std::string& name,
                                   double fallback) const {
  const auto it = counters.find(name);
  return it == counters.end() ? fallback : it->second;
}

double MetricsSnapshot::gauge_or(const std::string& name,
                                 double fallback) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? fallback : it->second;
}

std::string MetricsSnapshot::render() const {
  std::string out;
  if (!counters.empty() || !gauges.empty()) {
    TextTable t({"metric", "kind", "value"});
    for (const auto& [name, value] : counters)
      t.row().add(name).add("counter").add(value, 3);
    for (const auto& [name, value] : gauges)
      t.row().add(name).add("gauge").add(value, 3);
    out += t.to_string();
  }
  if (!histograms.empty()) {
    if (!out.empty()) out += "\n";
    TextTable t({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
    for (const auto& [name, h] : histograms)
      t.row()
          .add(name)
          .add(static_cast<long long>(h.count))
          .add(h.mean, 4)
          .add(h.p50, 4)
          .add(h.p95, 4)
          .add(h.p99, 4)
          .add(h.max, 4);
    out += t.to_string();
  }
  return out;
}

std::string MetricsSnapshot::to_csv() const {
  TextTable t({"kind", "name", "count", "sum", "mean", "p50", "p95", "p99",
               "max"});
  for (const auto& [name, value] : counters)
    t.row().add("counter").add(name).add(1).add(value, 6).add("").add("")
        .add("").add("").add("");
  for (const auto& [name, value] : gauges)
    t.row().add("gauge").add(name).add(1).add(value, 6).add("").add("")
        .add("").add("").add("");
  for (const auto& [name, h] : histograms) {
    t.row()
        .add("histogram")
        .add(name)
        .add(static_cast<long long>(h.count))
        .add(h.sum, 6)
        .add(h.mean, 6)
        .add(h.p50, 6)
        .add(h.p95, 6)
        .add(h.p99, 6)
        .add(h.max, 6);
    // One row per occupied bucket: count = in-bucket, sum = cumulative
    // (Prometheus-style le semantics) — external tools re-aggregate
    // from these without the live registry.
    std::uint64_t cum = 0;
    for (const HistogramBucket& b : h.buckets) {
      cum += b.count;
      t.row()
          .add("bucket")
          .add(name + ".le=" + format_metric_value(b.upper))
          .add(static_cast<long long>(b.count))
          .add(static_cast<long long>(cum))
          .add("")
          .add("")
          .add("")
          .add("")
          .add("");
    }
  }
  return t.to_csv();
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ",";
    first = false;
    out += json_quote(name) + ":" + format_metric_value(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ",";
    first = false;
    out += json_quote(name) + ":" + format_metric_value(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ",";
    first = false;
    out += json_quote(name) + ":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + format_metric_value(h.sum) +
           ",\"mean\":" + format_metric_value(h.mean) +
           ",\"min\":" + format_metric_value(h.min) +
           ",\"max\":" + format_metric_value(h.max) +
           ",\"p50\":" + format_metric_value(h.p50) +
           ",\"p95\":" + format_metric_value(h.p95) +
           ",\"p99\":" + format_metric_value(h.p99) + ",\"buckets\":[";
    bool bfirst = true;
    for (const HistogramBucket& b : h.buckets) {
      if (!bfirst) out += ",";
      bfirst = false;
      out += "{\"index\":" + std::to_string(b.index) +
             ",\"le\":" + format_metric_value(b.upper) +
             ",\"count\":" + std::to_string(b.count) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

MetricsRegistry::MetricsRegistry(MetricsRegistry& parent, std::string prefix)
    : parent_(&parent), prefix_(std::move(prefix)) {}

std::string MetricsRegistry::prefixed(std::string_view name) const {
  std::string full;
  full.reserve(prefix_.size() + name.size());
  full.append(prefix_).append(name);
  return full;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  if (parent_ != nullptr) return parent_->counter(prefixed(name));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.try_emplace(std::string(name)).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  if (parent_ != nullptr) return parent_->gauge(prefixed(name));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.try_emplace(std::string(name)).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  if (parent_ != nullptr) return parent_->histogram(prefixed(name));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.try_emplace(std::string(name)).first->second;
}

double MetricsRegistry::counter_value(std::string_view name) const {
  if (parent_ != nullptr) return parent_->counter_value(prefixed(name));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second.value();
}

double MetricsRegistry::gauge_value(std::string_view name) const {
  if (parent_ != nullptr) return parent_->gauge_value(prefixed(name));
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second.value();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  if (parent_ != nullptr) return parent_->snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h.stats();
  return snap;
}

void MetricsRegistry::clear() {
  if (parent_ != nullptr) return parent_->clear();
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace parcae::obs
