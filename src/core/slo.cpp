#include "core/slo.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/fault.h"
#include "common/table.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace parcae {

namespace {

const char* signal_name(SloSignal signal) {
  switch (signal) {
    case SloSignal::kCounterRate: return "rate";
    case SloSignal::kGauge: return "gauge";
    case SloSignal::kSeriesValue: return "value";
    case SloSignal::kSeriesDropPct: return "drop";
  }
  return "?";
}

bool parse_one(const std::string& text, SloRule* rule, std::string* error) {
  // name ':' signal ':' metric ':' op value [':for=' N]
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t colon = text.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, colon - begin));
    begin = colon + 1;
  }
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "rule '" + text + "': " + what;
    return false;
  };
  if (parts.size() < 4 || parts.size() > 5)
    return fail("expected name:signal:metric:op-value[:for=N]");
  if (parts[0].empty()) return fail("empty rule name");
  rule->name = parts[0];
  if (parts[1] == "rate")
    rule->signal = SloSignal::kCounterRate;
  else if (parts[1] == "gauge")
    rule->signal = SloSignal::kGauge;
  else if (parts[1] == "value")
    rule->signal = SloSignal::kSeriesValue;
  else if (parts[1] == "drop")
    rule->signal = SloSignal::kSeriesDropPct;
  else
    return fail("unknown signal '" + parts[1] +
                "' (rate|gauge|value|drop)");
  if (parts[2].empty()) return fail("empty metric name");
  rule->metric = parts[2];
  const std::string& cmp = parts[3];
  if (cmp.size() < 2 || (cmp[0] != '>' && cmp[0] != '<'))
    return fail("comparison must be >N or <N");
  rule->op = cmp[0] == '>' ? SloOp::kGt : SloOp::kLt;
  char* end = nullptr;
  rule->threshold = std::strtod(cmp.c_str() + 1, &end);
  if (end == cmp.c_str() + 1 || *end != '\0')
    return fail("bad threshold '" + cmp.substr(1) + "'");
  rule->for_intervals = 1;
  if (parts.size() == 5) {
    if (parts[4].rfind("for=", 0) != 0)
      return fail("expected for=N, got '" + parts[4] + "'");
    rule->for_intervals = std::atoi(parts[4].c_str() + 4);
    if (rule->for_intervals < 1) return fail("for=N needs N >= 1");
  }
  return true;
}

}  // namespace

std::vector<SloRule> SloEngine::parse_rules(const std::string& spec,
                                            std::string* error) {
  std::vector<SloRule> rules;
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t semi = spec.find(';', begin);
    if (semi == std::string::npos) semi = spec.size();
    const std::string one = spec.substr(begin, semi - begin);
    begin = semi + 1;
    if (one.empty()) continue;
    SloRule rule;
    if (!parse_one(one, &rule, error)) return {};
    rules.push_back(std::move(rule));
  }
  if (rules.empty() && error != nullptr) *error = "empty rule spec";
  return rules;
}

std::vector<SloRule> SloEngine::default_rules() {
  // The thresholds mirror the failure patterns docs/observability.md
  // walks through; override any of them with an explicit spec.
  return parse_rules(
      "liveput-drop:drop:liveput_expected_samples:>50:for=2;"
      "lease-churn:rate:driver.lease_expiries_detected:>2;"
      "rpc-retry-storm:rate:rpc.client.retries:>8;"
      "paused:rate:driver.paused_intervals:>0");
}

std::vector<SloRule> SloEngine::default_serving_rules() {
  // Latency-first failure patterns for the serving subsystem
  // (docs/serving.md): tail-latency breach, violation surges, queue
  // growth, admission drops, and goodput collapse after a preemption.
  return parse_rules(
      "serve-p99-breach:gauge:serve.p99_latency_ms:>4000:for=2;"
      "serve-violation-surge:rate:serve.slo_violations:>50;"
      "serve-queue-growth:gauge:serve.queue_depth:>32:for=3;"
      "serve-drops:rate:serve.dropped:>0;"
      "serve-goodput-drop:drop:goodput_rps:>50:for=2");
}

std::vector<SloEngine::RuleState> SloEngine::init(
    const std::vector<SloRule>& rules) {
  std::vector<RuleState> states;
  states.reserve(rules.size());
  for (const SloRule& rule : rules) states.push_back(RuleState{rule});
  return states;
}

std::vector<SloRule> SloEngine::rules() const {
  std::vector<SloRule> out;
  out.reserve(rules_.size());
  for (const RuleState& state : rules_) out.push_back(state.rule);
  return out;
}

bool SloEngine::observe(RuleState& state, double* value) const {
  const SloRule& rule = state.rule;
  switch (rule.signal) {
    case SloSignal::kCounterRate: {
      double current = 0.0;
      if (snapshot_ != nullptr)
        current = snapshot_->counter_or(rule.metric, 0.0);
      else if (metrics_ != nullptr)
        current = metrics_->counter_value(rule.metric);
      else
        return false;
      *value = current - state.prev_counter;
      state.prev_counter = current;
      return true;
    }
    case SloSignal::kGauge: {
      if (snapshot_ != nullptr)
        *value = snapshot_->gauge_or(rule.metric, 0.0);
      else if (metrics_ != nullptr)
        *value = metrics_->gauge_value(rule.metric);
      else
        return false;
      return true;
    }
    case SloSignal::kSeriesValue:
    case SloSignal::kSeriesDropPct: {
      if (series_ == nullptr || series_->rows() == 0) return false;
      const double current =
          series_->at(series_->rows() - 1, rule.metric);
      if (std::isnan(current)) return false;
      if (rule.signal == SloSignal::kSeriesValue) {
        *value = current;
        return true;
      }
      state.trailing_max = std::max(state.trailing_max, current);
      if (state.trailing_max <= 0.0) return false;
      *value =
          100.0 * (state.trailing_max - current) / state.trailing_max;
      return true;
    }
  }
  return false;
}

std::vector<SloAlert> SloEngine::evaluate(int interval, double time_s) {
  std::vector<SloAlert> fired;
  for (RuleState& state : rules_) {
    double value = 0.0;
    const bool observed = observe(state, &value);
    const bool breached =
        observed && (state.rule.op == SloOp::kGt
                         ? value > state.rule.threshold
                         : value < state.rule.threshold);
    if (!breached) {
      state.breached_streak = 0;
      state.firing = false;  // episode over; re-arm
      continue;
    }
    ++state.breached_streak;
    if (state.firing || state.breached_streak < state.rule.for_intervals)
      continue;
    state.firing = true;

    // The obs.alert point models a lossy alert channel: the breach
    // happened (and the episode still counts as fired once), but this
    // delivery is dropped from every sink.
    if (faults_ != nullptr && faults_->should_fire("obs.alert")) {
      ++suppressed_;
      if (metrics_ != nullptr)
        metrics_->counter("obs.alerts_suppressed").inc();
      continue;
    }

    SloAlert alert;
    alert.interval = interval;
    alert.time_s = time_s;
    alert.rule = state.rule.name;
    alert.metric = state.rule.metric;
    alert.value = value;
    alert.threshold = state.rule.threshold;
    if (metrics_ != nullptr) {
      metrics_->counter("obs.alerts_fired").inc();
      metrics_->counter("obs.alerts_fired." + state.rule.name).inc();
    }
    if (events_ != nullptr) {
      char value_text[40], threshold_text[40];
      std::snprintf(value_text, sizeof(value_text), "%g", value);
      std::snprintf(threshold_text, sizeof(threshold_text), "%g",
                    state.rule.threshold);
      events_->record(time_s, EventCategory::kAlert,
                      "slo breach: " + state.rule.name,
                      {{"metric", state.rule.metric},
                       {"signal", signal_name(state.rule.signal)},
                       {"value", value_text},
                       {"threshold", threshold_text}});
    }
    alerts_.push_back(alert);
    fired.push_back(std::move(alert));
  }
  return fired;
}

std::string SloEngine::to_jsonl() const {
  std::string out;
  for (const SloAlert& alert : alerts_) {
    out += "{\"interval\":" + std::to_string(alert.interval) +
           ",\"t\":" + obs::format_metric_value(alert.time_s) +
           ",\"rule\":" + obs::json_quote(alert.rule) +
           ",\"metric\":" + obs::json_quote(alert.metric) +
           ",\"value\":" + obs::format_metric_value(alert.value) +
           ",\"threshold\":" + obs::format_metric_value(alert.threshold) +
           "}\n";
  }
  return out;
}

bool SloEngine::write_jsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string jsonl = to_jsonl();
  std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  std::fclose(f);
  return true;
}

std::string SloEngine::render() const {
  if (alerts_.empty()) return "";
  std::map<std::string, int> count;
  std::map<std::string, const SloAlert*> last;
  for (const SloAlert& alert : alerts_) {
    ++count[alert.rule];
    last[alert.rule] = &alert;
  }
  TextTable t({"alert", "fired", "last interval", "last value",
               "threshold"});
  for (const auto& [rule, n] : count) {
    const SloAlert* a = last[rule];
    t.row()
        .add(rule)
        .add(n)
        .add(a->interval)
        .add(a->value, 3)
        .add(a->threshold, 3);
  }
  return t.to_string();
}

}  // namespace parcae
