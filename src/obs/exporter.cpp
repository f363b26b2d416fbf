#include "obs/exporter.h"

#include <algorithm>
#include <cctype>

namespace parcae::obs {

bool split_job_prefix(std::string_view name, std::string* job,
                      std::string* suffix) {
  if (name.rfind("job", 0) != 0) return false;
  std::size_t i = 3;
  while (i < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[i])))
    ++i;
  if (i == 3 || i >= name.size() || name[i] != '.' || i + 1 >= name.size())
    return false;
  if (job != nullptr) *job = std::string(name.substr(3, i - 3));
  if (suffix != nullptr) *suffix = std::string(name.substr(i + 1));
  return true;
}

std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (!name.empty() && name[0] >= '0' && name[0] <= '9') out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

struct FamilyName {
  std::string metric;  // mangled, namespaced
  std::string label;   // "" or "{job=\"3\"}"
};

FamilyName family_name(const std::string& raw) {
  FamilyName f;
  std::string job, suffix;
  if (split_job_prefix(raw, &job, &suffix)) {
    f.metric = "parcae_" + prometheus_name(suffix);
    f.label = "{job=\"" + job + "\"}";
  } else {
    f.metric = "parcae_" + prometheus_name(raw);
  }
  return f;
}

void append_header(std::string& out, const std::string& metric,
                   const char* type, std::map<std::string, bool>& seen) {
  if (seen.count(metric) != 0) return;
  seen[metric] = true;
  out += "# HELP " + metric + " Parcae instrument " + metric + "\n";
  out += "# TYPE " + metric + " " + type + "\n";
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  // One family may cover many job labels; emit HELP/TYPE once each.
  std::map<std::string, bool> seen;
  for (const auto& [name, value] : snapshot.counters) {
    const FamilyName f = family_name(name);
    const std::string metric = f.metric + "_total";
    append_header(out, metric, "counter", seen);
    out += metric + f.label + " " + format_metric_value(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const FamilyName f = family_name(name);
    append_header(out, f.metric, "gauge", seen);
    out += f.metric + f.label + " " + format_metric_value(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const FamilyName f = family_name(name);
    append_header(out, f.metric, "histogram", seen);
    // Cumulative le buckets; the label set merges {job} with {le}.
    const std::string label_open =
        f.label.empty() ? "{" : f.label.substr(0, f.label.size() - 1) + ",";
    std::uint64_t cum = 0;
    for (const HistogramBucket& b : h.buckets) {
      cum += b.count;
      out += f.metric + "_bucket" + label_open + "le=\"" +
             format_metric_value(b.upper) + "\"} " + std::to_string(cum) +
             "\n";
    }
    out += f.metric + "_bucket" + label_open + "le=\"+Inf\"} " +
           std::to_string(h.count) + "\n";
    out += f.metric + "_sum" + f.label + " " + format_metric_value(h.sum) +
           "\n";
    out += f.metric + "_count" + f.label + " " + std::to_string(h.count) +
           "\n";
  }
  return out;
}

void FleetAggregator::fold(const MetricsSnapshot& snapshot) {
  std::string job, suffix;
  for (const auto& [name, value] : snapshot.counters) {
    if (split_job_prefix(name, &job, &suffix)) {
      job_ids_[job] = true;
      rolled_.counters["fleet." + suffix] += value;
    } else {
      rolled_.counters[name] = value;
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (split_job_prefix(name, &job, &suffix)) {
      job_ids_[job] = true;
      rolled_.gauges["fleet." + suffix] += value;
      const std::string max_name = "fleet." + suffix + ".max";
      const auto [it, fresh] = rolled_.gauges.try_emplace(max_name, value);
      if (!fresh) it->second = std::max(it->second, value);
    } else {
      rolled_.gauges[name] = value;
    }
  }
  for (const auto& [name, h] : snapshot.histograms) {
    if (split_job_prefix(name, &job, &suffix)) {
      job_ids_[job] = true;
      rolled_.histograms["fleet." + suffix].merge(h);
    } else {
      rolled_.histograms[name] = h;
    }
  }
  jobs_seen_ = job_ids_.size();
}

MetricsSnapshot FleetAggregator::rollup() const {
  MetricsSnapshot out = rolled_;
  out.gauges["fleet.jobs"] = static_cast<double>(jobs_seen_);
  return out;
}

}  // namespace parcae::obs
