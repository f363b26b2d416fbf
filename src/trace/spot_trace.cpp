#include "trace/spot_trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/fault.h"

namespace parcae {

AvailabilityObservation observe_interval(const std::vector<int>& series,
                                         std::size_t i,
                                         const AvailabilityObservation& prev,
                                         FaultInjector* faults) {
  int available = series[i];
  if (faults != nullptr) {
    faults->set_interval(static_cast<int>(i));
    if (available > 0 && faults->should_fire("sim.unpredicted_preempt"))
      --available;
  }
  const int before = i == 0 ? series.front() : prev.available;
  return {available, std::max(0, before - available),
          std::max(0, available - before)};
}

SpotTrace::SpotTrace(std::string name, int initial_instances, int capacity,
                     double duration_s, std::vector<TraceEvent> events)
    : name_(std::move(name)),
      initial_(initial_instances),
      capacity_(capacity),
      duration_s_(duration_s),
      events_(std::move(events)) {
  assert(initial_ >= 0 && initial_ <= capacity_);
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time_s < b.time_s;
                   });
  // Clamp the running availability into [0, capacity] by truncating
  // events that would overflow either bound.
  int n = initial_;
  for (auto& e : events_) {
    int next = n + e.delta;
    if (next < 0) {
      e.delta = -n;
      next = 0;
    } else if (next > capacity_) {
      e.delta = capacity_ - n;
      next = capacity_;
    }
    n = next;
  }
  std::erase_if(events_, [](const TraceEvent& e) { return e.delta == 0; });
}

SpotTrace SpotTrace::from_minute_series(std::string name,
                                        const std::vector<int>& series,
                                        int capacity, double interval_s) {
  std::vector<TraceEvent> events;
  for (std::size_t i = 1; i < series.size(); ++i) {
    const int delta = series[i] - series[i - 1];
    if (delta != 0)
      events.push_back({static_cast<double>(i) * interval_s, delta});
  }
  return SpotTrace(std::move(name), series.empty() ? 0 : series.front(),
                   capacity, static_cast<double>(series.size()) * interval_s,
                   std::move(events));
}

int SpotTrace::instances_at(double t) const {
  int n = initial_;
  for (const auto& e : events_) {
    if (e.time_s > t) break;
    n += e.delta;
  }
  return n;
}

std::size_t SpotTrace::interval_count(double interval_s) const {
  return static_cast<std::size_t>(duration_s_ / interval_s + 1e-6);
}

std::vector<int> SpotTrace::availability_series(double interval_s) const {
  const std::size_t k = interval_count(interval_s);
  std::vector<int> out;
  out.reserve(k);
  int n = initial_;
  std::size_t ev = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double t = static_cast<double>(i) * interval_s;
    while (ev < events_.size() && events_[ev].time_s <= t) {
      n += events_[ev].delta;
      ++ev;
    }
    out.push_back(n);
  }
  return out;
}

std::vector<double> SpotTrace::availability_series_d(double interval_s) const {
  const auto ints = availability_series(interval_s);
  return std::vector<double>(ints.begin(), ints.end());
}

TraceStats SpotTrace::stats() const {
  TraceStats s;
  s.duration_s = duration_s_;
  int n = initial_;
  s.min_instances = s.max_instances = n;
  double prev_t = 0.0;
  double weighted = 0.0;
  for (const auto& e : events_) {
    const double t = std::min(e.time_s, duration_s_);
    weighted += static_cast<double>(n) * (t - prev_t);
    prev_t = t;
    if (e.time_s >= duration_s_) break;
    n += e.delta;
    s.min_instances = std::min(s.min_instances, n);
    s.max_instances = std::max(s.max_instances, n);
    if (e.delta < 0) {
      s.preempted_instances += -e.delta;
      ++s.preemption_events;
    } else {
      s.allocated_instances += e.delta;
      ++s.allocation_events;
    }
  }
  weighted += static_cast<double>(n) * (duration_s_ - prev_t);
  s.avg_instances = duration_s_ > 0.0 ? weighted / duration_s_ : 0.0;
  return s;
}

SpotTrace SpotTrace::slice(double t0, double t1, std::string name) const {
  assert(t0 <= t1);
  std::vector<TraceEvent> events;
  for (const auto& e : events_) {
    if (e.time_s <= t0 || e.time_s >= t1) continue;
    events.push_back({e.time_s - t0, e.delta});
  }
  return SpotTrace(name.empty() ? name_ + "[slice]" : std::move(name),
                   instances_at(t0), capacity_, t1 - t0, std::move(events));
}

SpotTrace SpotTrace::concat(const SpotTrace& other, std::string name) const {
  std::vector<TraceEvent> events = events_;
  const int end_n = instances_at(duration_s_);
  if (other.initial_instances() != end_n)
    events.push_back({duration_s_, other.initial_instances() - end_n});
  for (const auto& e : other.events())
    events.push_back({duration_s_ + e.time_s, e.delta});
  return SpotTrace(name.empty() ? name_ + "+" + other.name() : std::move(name),
                   initial_, std::max(capacity_, other.capacity()),
                   duration_s_ + other.duration_s(), std::move(events));
}

// ---------------------------------------------------------------------------

const char* trace_segment_name(TraceSegment segment) {
  switch (segment) {
    case TraceSegment::kHighAvailDense:
      return "HA-DP";
    case TraceSegment::kHighAvailSparse:
      return "HA-SP";
    case TraceSegment::kLowAvailDense:
      return "LA-DP";
    case TraceSegment::kLowAvailSparse:
      return "LA-SP";
  }
  return "?";
}

namespace {

// Expands a run-length encoded {level, minutes} list into a minute
// series.
std::vector<int> expand_runs(
    std::initializer_list<std::pair<int, int>> runs) {
  std::vector<int> series;
  for (const auto& [level, minutes] : runs)
    for (int i = 0; i < minutes; ++i) series.push_back(level);
  return series;
}

}  // namespace

SpotTrace canonical_segment(TraceSegment segment) {
  // Each run list is constructed so that Table 1 statistics hold
  // exactly: time-weighted average availability and the number of
  // preemption/allocation *events* (an event can move several
  // instances at once — Figure 15's window of HA-DP swings by ~6
  // instances across a couple of events). Verified in
  // tests/trace_test.cpp.
  switch (segment) {
    case TraceSegment::kHighAvailDense:
      // avg 27.05, 9 preemption events, 8 allocation events. High
      // availability punctured by brief deep dips (down to 21) — the
      // regime where greedy reconfiguration hurts most (Figure 15).
      return SpotTrace::from_minute_series(
          "HA-DP",
          expand_runs({{28, 10}, {25, 2}, {22, 1}, {28, 6}, {23, 1},
                       {27, 4}, {21, 1}, {28, 7}, {26, 2}, {28, 5},
                       {24, 2}, {28, 4}, {26, 4}, {28, 4}, {24, 1},
                       {27, 3}, {26, 1}, {28, 2}}));
    case TraceSegment::kHighAvailSparse:
      // avg 29.63 (1778/60), 6 preemption events, 5 allocation events.
      return SpotTrace::from_minute_series(
          "HA-SP",
          expand_runs({{30, 12}, {28, 4}, {30, 10}, {29, 4}, {30, 9},
                       {29, 3}, {30, 6}, {29, 3}, {30, 4}, {29, 2},
                       {30, 1}, {29, 2}}));
    case TraceSegment::kLowAvailDense:
      // avg 16.82 (1009/60), 8 preemption events, 12 allocation
      // events. Ramps up from a low start, briefly peaks at 23 (the
      // deepest Bamboo pipeline), then churns in the 17-19 band —
      // right at Varuna's GPT-3 feasibility edge, as the paper's
      // LA-DP behaves.
      return SpotTrace::from_minute_series(
          "LA-DP",
          expand_runs({{12, 2}, {13, 2}, {14, 2}, {12, 2}, {15, 2},
                       {13, 2}, {16, 2}, {13, 2}, {15, 2}, {13, 2},
                       {14, 2}, {13, 2}, {14, 2}, {15, 2}, {19, 2},
                       {23, 7}, {19, 12}, {18, 5}, {17, 2}, {18, 2},
                       {19, 2}}));
    case TraceSegment::kLowAvailSparse:
      // avg 14.60, 3 preemption events, 0 allocations. Starts at 16
      // so that a fixed 16-deep pipeline (Bamboo's GPT-2
      // configuration) can run briefly before the first preemption.
      return SpotTrace::from_minute_series(
          "LA-SP",
          expand_runs({{16, 10}, {15, 22}, {14, 22}, {13, 6}}));
  }
  return SpotTrace();
}

std::vector<SpotTrace> all_canonical_segments() {
  return {canonical_segment(TraceSegment::kHighAvailDense),
          canonical_segment(TraceSegment::kHighAvailSparse),
          canonical_segment(TraceSegment::kLowAvailDense),
          canonical_segment(TraceSegment::kLowAvailSparse)};
}

namespace {

// Random-walk glue between two availability levels over `minutes`.
std::vector<int> glue_walk(int from, int to, int minutes, int capacity,
                           Rng& rng) {
  std::vector<int> series;
  series.reserve(static_cast<std::size_t>(minutes));
  double level = from;
  const double drift =
      (static_cast<double>(to) - from) / std::max(1, minutes);
  for (int i = 0; i < minutes; ++i) {
    level += drift;
    double jitter = 0.0;
    if (rng.bernoulli(0.15)) jitter = rng.uniform_int(-2, 2);
    int n = static_cast<int>(std::lround(level + jitter));
    n = std::clamp(n, 1, capacity);
    series.push_back(n);
  }
  return series;
}

}  // namespace

SpotTrace full_day_trace(std::uint64_t seed) {
  Rng rng(seed);
  const int cap = 32;
  // 12 hours: glue(1h) HA-SP glue(1h) HA-DP glue(2h) LA-DP glue(1h)
  // LA-SP glue(2h), matching Figure 8's high-then-low shape.
  const SpotTrace ha_sp = canonical_segment(TraceSegment::kHighAvailSparse);
  const SpotTrace ha_dp = canonical_segment(TraceSegment::kHighAvailDense);
  const SpotTrace la_dp = canonical_segment(TraceSegment::kLowAvailDense);
  const SpotTrace la_sp = canonical_segment(TraceSegment::kLowAvailSparse);

  auto glue = [&](int from, int to, int minutes) {
    return SpotTrace::from_minute_series("glue",
                                         glue_walk(from, to, minutes, cap, rng),
                                         cap);
  };

  SpotTrace t = glue(31, ha_sp.initial_instances(), 60);
  t = t.concat(ha_sp);
  t = t.concat(glue(29, ha_dp.initial_instances(), 60));
  t = t.concat(ha_dp);
  t = t.concat(glue(27, la_dp.initial_instances(), 120));
  t = t.concat(la_dp);
  t = t.concat(glue(18, la_sp.initial_instances(), 60));
  t = t.concat(la_sp);
  t = t.concat(glue(12, 22, 180));
  return SpotTrace("full-day", t.initial_instances(), cap, t.duration_s(),
                   t.events());
}

// Instances one synthetic preemption event takes, at most.
constexpr int kMaxPreemptionEventSize = 2;

SpotTrace synthesize_trace(const SyntheticTraceOptions& options, Rng& rng) {
  const auto intervals =
      static_cast<int>(options.duration_s / options.interval_s + 0.5);
  const int target = static_cast<int>(std::lround(options.target_availability));
  std::vector<int> series;
  series.reserve(static_cast<std::size_t>(intervals));
  int n = std::clamp(target, 1, options.capacity);
  // Spread preemption events uniformly over the trace; after each
  // preemption, schedule a compensating allocation a few intervals
  // later (the Figure-14 synthetic traces keep availability roughly
  // constant while scaling event count).
  std::vector<int> preempt_at;
  for (int e = 0; e < options.preemption_events; ++e) {
    const int slot = static_cast<int>(
        (static_cast<double>(e) + rng.uniform(0.25, 0.75)) * intervals /
        std::max(1, options.preemption_events));
    preempt_at.push_back(std::clamp(slot, 1, intervals - 1));
  }
  std::vector<int> pending_alloc(static_cast<std::size_t>(intervals) + 8, 0);
  std::size_t next_preempt = 0;
  auto preempts_at = [&](int interval) {
    for (int p : preempt_at)
      if (p == interval) return true;
    return false;
  };
  for (int i = 0; i < intervals; ++i) {
    if (i > 0) {
      // A cloud never allocates and preempts at the same instant
      // (§5.2); a compensating allocation colliding with a scheduled
      // preemption would also cancel in the minute series, so defer
      // it one interval.
      if (static_cast<std::size_t>(i) < pending_alloc.size() &&
          pending_alloc[static_cast<std::size_t>(i)] > 0) {
        if (preempts_at(i)) {
          if (static_cast<std::size_t>(i + 1) < pending_alloc.size())
            pending_alloc[static_cast<std::size_t>(i + 1)] +=
                pending_alloc[static_cast<std::size_t>(i)];
        } else {
          n = std::min(options.capacity,
                       n + pending_alloc[static_cast<std::size_t>(i)]);
        }
      }
      while (next_preempt < preempt_at.size() &&
             preempt_at[next_preempt] == i) {
        const int k = static_cast<int>(
            rng.uniform_int(1, kMaxPreemptionEventSize));
        const int actual = std::min(k, n - 1);  // never drop to zero
        n -= actual;
        if (actual > 0) {
          const int delay = static_cast<int>(rng.uniform_int(1, 3));
          const std::size_t at = static_cast<std::size_t>(i + delay);
          if (at < pending_alloc.size()) pending_alloc[at] += actual;
        }
        ++next_preempt;
      }
    }
    series.push_back(n);
  }
  return SpotTrace::from_minute_series(
      "synthetic-" + std::to_string(options.preemption_events) + "ev", series,
      options.capacity, options.interval_s);
}

SpotTrace synthesize_drift_trace() {
  constexpr int kCapacity = 32;
  constexpr double kDurationS = 12 * 3600.0;
  constexpr double kIntervalS = 60.0;
  constexpr double kBaseAvailability = 22.0;
  constexpr double kAmplitude = 8.0;       // swing of the slow capacity wave
  constexpr double kPeriodS = 300 * 60.0;  // one drain+refill cycle
  constexpr double kSmoothing = 0.25;  // lag of actual level behind the wave
  const auto intervals = static_cast<int>(kDurationS / kIntervalS + 0.5);
  std::vector<int> series;
  series.reserve(static_cast<std::size_t>(intervals));
  double level = kBaseAvailability;
  for (int t = 0; t < intervals; ++t) {
    const double phase =
        2.0 * M_PI * (static_cast<double>(t) * kIntervalS) / kPeriodS;
    const double target = kBaseAvailability + kAmplitude * std::sin(phase);
    level += kSmoothing * (target - level);
    series.push_back(std::clamp(static_cast<int>(std::floor(level + 0.5)), 0,
                                kCapacity));
  }
  return SpotTrace::from_minute_series("drift", series, kCapacity,
                                       kIntervalS);
}

SpotTrace derive_multi_gpu_trace(const SpotTrace& single,
                                 int gpus_per_instance) {
  assert(gpus_per_instance >= 1);
  if (gpus_per_instance == 1) return single;
  // Following §10.2: accumulate every k single-GPU preemption events
  // into one multi-GPU preemption placed at the *last* of the k, and
  // every k allocations into one multi-GPU allocation placed at the
  // *first* of the k (this favors the multi-GPU trace in total GPU
  // hours, as the paper notes).
  std::vector<TraceEvent> events;
  int preempt_acc = 0;
  int alloc_acc = 0;
  double alloc_first_time = 0.0;
  for (const auto& e : single.events()) {
    for (int unit = 0; unit < e.instance_count(); ++unit) {
      if (e.is_preemption()) {
        ++preempt_acc;
        if (preempt_acc == gpus_per_instance) {
          events.push_back({e.time_s, -1});
          preempt_acc = 0;
        }
      } else {
        if (alloc_acc == 0) alloc_first_time = e.time_s;
        ++alloc_acc;
        if (alloc_acc == gpus_per_instance) {
          events.push_back({alloc_first_time, +1});
          alloc_acc = 0;
        }
      }
    }
  }
  const int initial = single.initial_instances() / gpus_per_instance;
  const int capacity =
      std::max(1, single.capacity() / gpus_per_instance);
  return SpotTrace(single.name() + "-x" + std::to_string(gpus_per_instance),
                   initial, capacity, single.duration_s(), std::move(events));
}

}  // namespace parcae
