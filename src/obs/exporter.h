// Live telemetry export: Prometheus text exposition of a
// MetricsSnapshot, and fleet rollups of per-job prefixed registries.
//
// The rendering half is pure (snapshot in, exposition text out) so it
// is testable and byte-deterministic; the serving half — the
// `obs.metrics` RPC endpoint a scraper hits over the existing inproc/
// TCP transports — lives in src/rpc/obs_service.* (the rpc layer
// depends on obs, not the reverse).
//
// Name mapping: Parcae instrument names are dotted
// ("job3.scheduler.intervals"); Prometheus names are underscore_cased
// under a "parcae_" prefix, with a job label split off the "job<N>."
// prefix:
//   parcae_scheduler_intervals_total{job="3"} 42
// Counters get a _total suffix, histograms the conventional
// _bucket{le="..."} / _sum / _count triple (cumulative buckets, +Inf
// included). Values use format_metric_value — byte-identical with
// MetricsSnapshot::to_json, so there is no snapshot-vs-exporter drift.
//
// FleetAggregator folds per-job prefixed snapshots into fleet rollups:
// counters sum, gauges sum plus a ".max" companion, histograms merge
// bucket-wise (HistogramStats::merge) so fleet-level p99s are exactly
// what one merged histogram would report.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace parcae::obs {

// Splits a "job<digits>." prefix: returns true and fills job/suffix
// ("job3.scheduler.intervals" -> "3", "scheduler.intervals").
bool split_job_prefix(std::string_view name, std::string* job,
                      std::string* suffix);

// Prometheus metric-name mangling: '.' -> '_', any other character
// outside [a-zA-Z0-9_:] -> '_', leading digit prefixed with '_'.
std::string prometheus_name(std::string_view name);

// The whole snapshot in Prometheus text exposition format 0.0.4
// (# HELP / # TYPE headers, one family per instrument). Deterministic:
// families render in registry (lexicographic) order.
std::string to_prometheus(const MetricsSnapshot& snapshot);

// Folds per-job prefixed snapshots into "fleet.<suffix>" rollups.
class FleetAggregator {
 public:
  // Accumulates one snapshot: "job<N>." instruments are folded into
  // their fleet rollup; anything else passes through unchanged (last
  // write wins for duplicate pass-through names).
  void fold(const MetricsSnapshot& snapshot);

  // Distinct job ids folded so far.
  int jobs() const { return static_cast<int>(jobs_seen_); }

  // The rollup: "fleet.<suffix>" counters (sum), gauges (sum, plus
  // "fleet.<suffix>.max"), histograms (bucket merge), pass-through
  // instruments, and a "fleet.jobs" gauge.
  MetricsSnapshot rollup() const;

 private:
  std::size_t jobs_seen_ = 0;
  std::map<std::string, bool> job_ids_;
  MetricsSnapshot rolled_;  // fleet.* aggregates + pass-through
};

}  // namespace parcae::obs
