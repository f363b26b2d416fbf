#include "net/network_model.h"

#include <algorithm>

namespace parcae {

double NetworkModel::p2p_time(double bytes) {
  return kInterNodeLink.time(bytes);
}

double NetworkModel::ring_allreduce_time(double bytes, int world) {
  if (world <= 1 || bytes <= 0.0) return 0.0;
  const double hops = 2.0 * (world - 1);
  return hops * kInterNodeLink.time(bytes / world);
}

double NetworkModel::all_to_all_time(double bytes_per_rank, int world) {
  if (world <= 1 || bytes_per_rank <= 0.0) return 0.0;
  return static_cast<double>(world - 1) *
         kInterNodeLink.time(bytes_per_rank / std::max(1, world - 1));
}

double NetworkModel::contention_factor(int flows) {
  return flows <= 1 ? 1.0 : static_cast<double>(flows);
}

}  // namespace parcae
