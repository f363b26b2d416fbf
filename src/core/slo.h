// Declarative SLO rules evaluated once per scheduling interval.
//
// Training on preemptible instances degrades in recognizable ways —
// liveput collapsing after a preemption wave, lease churn from silent
// deaths, an rpc retry storm on a flaky wire, the driver pausing
// because the advised configuration no longer fits. An SloEngine
// watches for these patterns in the run's own observability state (the
// MetricsRegistry and the per-interval TimeSeriesRecorder — it reads
// the same instruments the exporter serves) and emits structured
// alerts: one EventLog kAlert entry and one alerts.jsonl line per
// firing, plus obs.alerts_fired / obs.alerts_fired.<rule> counters.
//
// Rule spec grammar (CLI `alerts=` flags, docs/observability.md):
//
//   spec   := rule (';' rule)*
//   rule   := name ':' signal ':' metric ':' op value [':for=' N]
//   signal := 'rate'   counter delta per interval
//           | 'gauge'  current gauge value
//           | 'value'  latest value of a time-series column
//           | 'drop'   percent drop of a series column vs its
//                      trailing max (100 * (max - cur) / max)
//   op     := '>' | '<'
//
//   liveput-drop:drop:liveput_expected_samples:>50:for=2;
//   retry-storm:rate:rpc.client.retries:>8
//
// Prometheus-style `for=N` hysteresis: the condition must hold N
// consecutive intervals before the alert fires, and it fires once per
// breach episode (re-arming after the condition clears). Evaluation is
// pure observation — deterministic given the run (same seed => byte-
// identical alerts.jsonl) and never feeds back into decisions. The
// "obs.alert" fault point models a lossy alert channel: a firing
// drops the alert from every sink and counts obs.alerts_suppressed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/telemetry.h"
#include "obs/metrics.h"

namespace parcae {

class FaultInjector;

namespace obs {
class TimeSeriesRecorder;
}  // namespace obs

enum class SloSignal { kCounterRate, kGauge, kSeriesValue, kSeriesDropPct };
enum class SloOp { kGt, kLt };

struct SloRule {
  std::string name;            // alert name ("liveput-drop")
  SloSignal signal = SloSignal::kCounterRate;
  std::string metric;          // counter/gauge name or series column
  SloOp op = SloOp::kGt;
  double threshold = 0.0;
  int for_intervals = 1;       // consecutive breaches before firing
};

struct SloAlert {
  int interval = 0;
  double time_s = 0.0;
  std::string rule;
  std::string metric;
  double value = 0.0;      // observed value that breached
  double threshold = 0.0;
};

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules) : rules_(init(rules)) {}

  // Parses the spec grammar above. Returns an empty list and fills
  // *error on a malformed spec.
  static std::vector<SloRule> parse_rules(const std::string& spec,
                                          std::string* error = nullptr);
  // The built-in rule set: liveput-drop (series column
  // "liveput_expected_samples" falls >50% from its trailing max, 2
  // intervals), lease-churn (>2 lease
  // expiries detected in one interval), rpc-retry-storm (>8 transport
  // retries in one interval), paused (driver.paused_intervals grows).
  static std::vector<SloRule> default_rules();
  // The built-in latency-signal set for the serving workload
  // (docs/serving.md): serve-p99-breach (p99 gauge above 4 s, 2
  // intervals), serve-violation-surge (>50 SLO violations in one
  // interval), serve-queue-growth (admission queues >32 deep, 3
  // intervals), serve-drops (any admission drop), serve-goodput-drop
  // (series column "goodput_rps" falls >50% from its trailing max,
  // 2 intervals).
  static std::vector<SloRule> default_serving_rules();

  // Observation sources and sinks, all non-owning and optional;
  // absent sources make their rules evaluate as not-breached. Rules
  // read counters and gauges from `metrics`, and alert delivery counts
  // into it (obs.alerts_fired[.rule], obs.alerts_suppressed).
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  // A snapshot source overriding the live registry for counter/gauge
  // rules — how the fleet evaluates rules against FleetAggregator
  // rollups ("fleet.*" names that exist in no registry). Non-owning;
  // reset to nullptr before the snapshot dies.
  void set_snapshot(const obs::MetricsSnapshot* snapshot) {
    snapshot_ = snapshot;
  }
  void set_timeseries(const obs::TimeSeriesRecorder* series) {
    series_ = series;
  }
  void set_event_log(EventLog* events) { events_ = events; }
  // Arms the "obs.alert" suppression point.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

  // Evaluates every rule against the current sources; appends fired
  // alerts to alerts() and returns the ones fired this interval.
  std::vector<SloAlert> evaluate(int interval, double time_s);

  std::vector<SloRule> rules() const;
  const std::vector<SloAlert>& alerts() const { return alerts_; }
  std::uint64_t suppressed() const { return suppressed_; }

  // One JSON object per alert, oldest first:
  //   {"interval":4,"t":240,"rule":"...","metric":"...",
  //    "value":...,"threshold":...}
  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

  // Alert counts per rule, rendered as a table for dashboards; "" when
  // nothing fired.
  std::string render() const;

 private:
  struct RuleState {
    SloRule rule;
    double prev_counter = 0.0;  // kCounterRate: last interval's value
    double trailing_max = 0.0;  // kSeriesDropPct: max column value seen
    int breached_streak = 0;
    bool firing = false;        // inside a breach episode (already fired)
  };
  static std::vector<RuleState> init(const std::vector<SloRule>& rules);

  // Observed value for one rule now; false when the source is absent
  // or the series cell is missing.
  bool observe(RuleState& state, double* value) const;

  std::vector<RuleState> rules_;
  std::vector<SloAlert> alerts_;
  std::uint64_t suppressed_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  const obs::MetricsSnapshot* snapshot_ = nullptr;
  const obs::TimeSeriesRecorder* series_ = nullptr;
  EventLog* events_ = nullptr;
  FaultInjector* faults_ = nullptr;
};

}  // namespace parcae
