// InstanceLease: the unit of instance ownership the FleetArbiter
// grants and revokes.
//
// A lease binds a count of pool instances to one job. The arbiter
// resizes leases at interval boundaries (grants when the pool grows or
// fairness demands it, revocations when it shrinks or a swap moves
// capacity to a higher-value job); the LeaseLedger keeps the full
// audit trail — every resize with its interval, direction, and reason
// — plus the revocation-latency accounting that flows into the
// fleet.* metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace parcae::fleet {

struct InstanceLease {
  std::uint64_t id = 0;       // ledger-assigned, stable for the run
  int job_id = -1;
  int count = 0;              // instances currently held
  int granted_interval = 0;   // interval the lease was opened
  int last_change_interval = 0;
};

// Why a lease changed size.
enum class LeaseChangeReason {
  kInitialGrant,   // lease opened
  kPoolGrowth,     // pool grew; fairness water-fill granted more
  kPoolShrink,     // pool shrank; arbitration revoked
  kValueSwap,      // instance moved toward higher marginal liveput
};

const char* lease_change_reason_name(LeaseChangeReason reason);

struct LeaseChange {
  int interval = 0;
  int job_id = -1;
  int delta = 0;   // signed instance-count change
  LeaseChangeReason reason = LeaseChangeReason::kInitialGrant;
};

// Append-only record of every lease resize in a fleet run.
class LeaseLedger {
 public:
  // Opens a lease for `job_id` (count 0) and returns it.
  InstanceLease& open(int job_id, int interval);

  // Records a resize of `job_id`'s lease.
  void record(int job_id, int interval, int delta, LeaseChangeReason reason);

  const std::vector<InstanceLease>& leases() const { return leases_; }
  const std::vector<LeaseChange>& changes() const { return changes_; }

  // Instances revoked over the run.
  long long instances_revoked() const { return revoked_; }

  std::string to_string() const;

 private:
  std::vector<InstanceLease> leases_;  // indexed by job_id
  std::vector<LeaseChange> changes_;
  std::uint64_t next_id_ = 1;
  long long revoked_ = 0;
};

}  // namespace parcae::fleet
