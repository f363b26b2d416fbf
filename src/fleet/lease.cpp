#include "fleet/lease.h"

#include <stdexcept>

namespace parcae::fleet {

const char* lease_change_reason_name(LeaseChangeReason reason) {
  switch (reason) {
    case LeaseChangeReason::kInitialGrant:
      return "initial-grant";
    case LeaseChangeReason::kPoolGrowth:
      return "pool-growth";
    case LeaseChangeReason::kPoolShrink:
      return "pool-shrink";
    case LeaseChangeReason::kValueSwap:
      return "value-swap";
  }
  return "?";
}

InstanceLease& LeaseLedger::open(int job_id, int interval) {
  if (job_id != static_cast<int>(leases_.size()))
    throw std::logic_error("LeaseLedger: leases must be opened in job order");
  InstanceLease lease;
  lease.id = next_id_++;
  lease.job_id = job_id;
  lease.granted_interval = interval;
  lease.last_change_interval = interval;
  leases_.push_back(lease);
  changes_.push_back({interval, job_id, 0, LeaseChangeReason::kInitialGrant});
  return leases_.back();
}

void LeaseLedger::record(int job_id, int interval, int delta,
                         LeaseChangeReason reason) {
  if (delta == 0) return;
  InstanceLease& lease = leases_.at(static_cast<std::size_t>(job_id));
  lease.count += delta;
  lease.last_change_interval = interval;
  changes_.push_back({interval, job_id, delta, reason});
  if (delta < 0) revoked_ -= delta;
}

std::string LeaseLedger::to_string() const {
  std::string out;
  for (const LeaseChange& c : changes_) {
    out += "t=" + std::to_string(c.interval) + " job" +
           std::to_string(c.job_id) + " " +
           (c.delta >= 0 ? "+" : "") + std::to_string(c.delta) + " (" +
           lease_change_reason_name(c.reason) + ")\n";
  }
  return out;
}

}  // namespace parcae::fleet
