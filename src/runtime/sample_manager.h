// Sample manager (§9.1).
//
// Tracks every training sample of an epoch. Mini-batches are *leased*
// to pipelines; a lease is *committed* when the optimizer step using
// those samples completes, or *aborted* when a preemption destroys the
// in-flight iteration — aborted samples rejoin the pool and are
// re-leased later ("opportunistically reorder samples"). This
// guarantees each sample is trained exactly once per epoch, preserving
// on-demand training semantics while never recomputing committed work.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

namespace parcae {

class SampleManager {
 public:
  // `epoch_size` samples per epoch, shuffled with `seed` at each epoch
  // start (the standard random-reshuffling data order).
  SampleManager(std::size_t epoch_size, std::uint64_t seed = 1,
                bool shuffle = true);

  struct Lease {
    std::uint64_t id = 0;
    std::vector<std::size_t> samples;
  };

  // Leases up to `batch` samples. Returns an empty lease (id 0) only
  // when every sample of the epoch is committed or currently leased.
  Lease lease(std::size_t batch);

  // Marks all samples of the lease as trained. Invalid ids are
  // ignored (idempotent commit).
  void commit(std::uint64_t lease_id);

  // Returns the lease's samples to the pool for re-leasing.
  void abort(std::uint64_t lease_id);

  // True when every sample of the current epoch is committed and no
  // lease is outstanding.
  bool epoch_complete() const;

  // Starts the next epoch (requires epoch_complete()).
  void start_next_epoch();

  std::size_t epoch() const { return epoch_; }
  std::size_t committed_count() const { return committed_; }
  std::size_t outstanding_leases() const { return leases_.size(); }
  std::size_t epoch_size() const { return epoch_size_; }

  // Indices committed so far this epoch, in commit order (test hook
  // for the exactly-once property).
  const std::vector<std::size_t>& committed_samples() const {
    return committed_order_;
  }

 private:
  void refill_pool();

  std::size_t epoch_size_;
  Rng rng_;
  bool shuffle_;
  std::size_t epoch_ = 0;
  std::vector<std::size_t> pool_;  // not yet leased (back = next out)
  std::map<std::uint64_t, std::vector<std::size_t>> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::size_t committed_ = 0;
  std::vector<std::size_t> committed_order_;
};

}  // namespace parcae
