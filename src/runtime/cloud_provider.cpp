#include "runtime/cloud_provider.h"

#include <algorithm>

namespace parcae {

TraceCloudProvider::TraceCloudProvider(SpotTrace trace, std::uint64_t seed,
                                       double grace_s)
    : trace_(std::move(trace)), rng_(seed), grace_s_(grace_s) {
  // Instances present at t=0 are granted immediately once requested.
}

void TraceCloudProvider::request_instances(int count) { requested_ = count; }

std::vector<CloudEvent> TraceCloudProvider::advance(double until_s) {
  std::vector<CloudEvent> events;
  // Capacity the trace allows at a time t.
  auto emit_grants = [&](double t) {
    const int capacity = trace_.instances_at(t);
    while (static_cast<int>(held_.size()) < std::min(requested_, capacity)) {
      CloudEvent event;
      event.kind = CloudEvent::Kind::kInstanceGranted;
      event.time_s = t;
      event.instance_id = next_instance_id_++;
      held_.push_back(event.instance_id);
      events.push_back(event);
    }
  };
  auto emit_preemptions = [&](double t, int count) {
    for (int i = 0; i < count && !held_.empty(); ++i) {
      const auto victim = rng_.uniform_int(held_.size());
      CloudEvent event;
      event.kind = CloudEvent::Kind::kPreemptionNotice;
      event.time_s = t;
      event.instance_id = held_[victim];
      event.grace_s = grace_s_;
      held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(victim));
      events.push_back(event);
    }
  };

  emit_grants(now_);
  const auto& trace_events = trace_.events();
  while (next_event_ < trace_events.size() &&
         trace_events[next_event_].time_s <= until_s) {
    const TraceEvent& e = trace_events[next_event_];
    if (e.time_s > now_) now_ = e.time_s;
    if (e.is_preemption()) {
      // The trace says capacity shrank; reclaim the excess we hold.
      const int capacity = trace_.instances_at(e.time_s);
      const int excess = static_cast<int>(held_.size()) - capacity;
      if (excess > 0) emit_preemptions(e.time_s, excess);
    } else {
      emit_grants(e.time_s);
    }
    ++next_event_;
  }
  now_ = until_s;
  emit_grants(now_);
  std::stable_sort(events.begin(), events.end(),
                   [](const CloudEvent& a, const CloudEvent& b) {
                     return a.time_s < b.time_s;
                   });
  return events;
}

}  // namespace parcae
