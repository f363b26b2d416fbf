// The cloud as the spot driver sees it (§9's boundary between
// ParcaeScheduler and the cloud).
//
// The scheduler never sees a trace — it sees instance-level events: a
// preemption *notice* arrives with a grace period (30 s on Azure, 120 s
// on AWS) before the instance disappears; allocation requests are
// asynchronous and may be partially filled. TraceCloudProvider derives
// those events from a SpotTrace. A real cloud backend replaces its two
// calls, request_instances() and advance().
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "trace/spot_trace.h"

namespace parcae {

struct CloudEvent {
  enum class Kind { kPreemptionNotice, kInstanceGranted };
  Kind kind = Kind::kInstanceGranted;
  double time_s = 0.0;
  int instance_id = -1;
  // For preemption notices: seconds until the instance is reclaimed.
  double grace_s = 0.0;
};

// Replays a SpotTrace: availability drops preempt uniformly chosen
// held instances (with the provider's grace period), rises grant new
// instances up to the outstanding request.
class TraceCloudProvider {
 public:
  TraceCloudProvider(SpotTrace trace, std::uint64_t seed = 1,
                     double grace_s = 30.0);

  // Advances simulated time to `until_s` and returns the events that
  // occurred since the previous call, in time order.
  std::vector<CloudEvent> advance(double until_s);

  // Registers interest in holding `count` instances in total; grants
  // arrive (if capacity allows) through advance().
  void request_instances(int count);

  // Instances currently held (granted and not yet reclaimed).
  int held() const { return static_cast<int>(held_.size()); }

 private:
  SpotTrace trace_;
  Rng rng_;
  double grace_s_;
  double now_ = 0.0;
  std::size_t next_event_ = 0;
  int requested_ = 0;
  std::vector<int> held_;
  int next_instance_id_ = 0;
};

}  // namespace parcae
