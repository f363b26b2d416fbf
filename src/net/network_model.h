// α–β communication cost model (Valiant's bridging model, as used by
// Parcae's cost estimator §9.4) and collective-operation timings.
//
// All costs are analytical: time(bytes) = α + β·bytes per hop, with
// collective algorithms expressed in terms of hop counts and volume.
// Every transfer crosses the cloud VPC network between p3.2xlarge
// instances; a multi-GPU instance (Fig 10) is modeled as one faster
// instance, so no stage boundary is ever intra-node.
#pragma once

namespace parcae {

struct LinkModel {
  double alpha_s = 0.0;           // per-message latency (seconds)
  double beta_s_per_byte = 0.0;   // inverse bandwidth (seconds/byte)

  double time(double bytes) const { return alpha_s + beta_s_per_byte * bytes; }
};

// AWS p3.2xlarge: "up to 10 Gbps" network, ~1.25 GB/s sustained,
// ~0.2 ms effective message latency.
inline constexpr LinkModel kInterNodeLink{200e-6, 1.0 / 1.25e9};

struct NetworkModel {
  // Point-to-point transfer of `bytes` over one link.
  static double p2p_time(double bytes);

  // Ring all-reduce over `world` participants: 2(w-1) hops, each
  // moving bytes/w. Equals 0 for world <= 1.
  static double ring_allreduce_time(double bytes, int world);

  // All-to-all exchange used by pipeline migration: every instance
  // re-shards its model states; each sends/receives ~bytes of state.
  // Modeled as (w-1) rounds of pairwise exchange of bytes/(w-1),
  // serialized on each instance's NIC.
  static double all_to_all_time(double bytes_per_rank, int world);

  // Effective slowdown when `flows` transfers share one link
  // (bandwidth is divided, latency unchanged). flows <= 1 -> 1.0.
  static double contention_factor(int flows);
};

}  // namespace parcae
