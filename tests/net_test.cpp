// Tests for the alpha-beta network model and collective costs.
#include <gtest/gtest.h>

#include "net/network_model.h"

namespace parcae {
namespace {

constexpr double kGB = 1e9;

TEST(LinkModel, AlphaBetaComposition) {
  const LinkModel link{1e-3, 1e-9};
  EXPECT_DOUBLE_EQ(link.time(0.0), 1e-3);
  EXPECT_DOUBLE_EQ(link.time(1e9), 1e-3 + 1.0);
}

TEST(NetworkModel, P2pUsesCorrectLink) {
  const double inter = NetworkModel::p2p_time(kGB);
  EXPECT_DOUBLE_EQ(inter, kInterNodeLink.time(kGB));
  EXPECT_GT(inter, 0.5);  // ~1 GB over 1.25 GB/s
  EXPECT_LT(inter, 2.0);
}

TEST(NetworkModel, RingAllreduceMatchesFormula) {
  const int w = 8;
  const double bytes = 4 * kGB;
  const double expect = 2.0 * (w - 1) * kInterNodeLink.time(bytes / w);
  EXPECT_DOUBLE_EQ(NetworkModel::ring_allreduce_time(bytes, w), expect);
}

TEST(NetworkModel, CollectivesDegenerateAtWorldOne) {
  EXPECT_DOUBLE_EQ(NetworkModel::ring_allreduce_time(kGB, 1), 0.0);
  EXPECT_DOUBLE_EQ(NetworkModel::all_to_all_time(kGB, 1), 0.0);
}

TEST(NetworkModel, ZeroBytesIsFree) {
  EXPECT_DOUBLE_EQ(NetworkModel::ring_allreduce_time(0.0, 8), 0.0);
  EXPECT_DOUBLE_EQ(NetworkModel::all_to_all_time(0.0, 8), 0.0);
}

TEST(NetworkModel, AllreduceBandwidthTermSaturates) {
  // The bandwidth-optimal ring moves 2(w-1)/w * bytes regardless of w;
  // for large w the bandwidth term approaches 2 * bytes * beta. Each of
  // the 2(w-1) hops also pays the link latency, which is subtracted.
  const auto bandwidth_term = [](int w) {
    return NetworkModel::ring_allreduce_time(kGB, w) -
           2.0 * (w - 1) * kInterNodeLink.alpha_s;
  };
  const double t8 = bandwidth_term(8);
  const double t64 = bandwidth_term(64);
  const double limit = 2.0 * kGB * kInterNodeLink.beta_s_per_byte;
  EXPECT_LT(t8, limit);
  EXPECT_LT(t64, limit);
  EXPECT_GT(t64, t8);  // closer to the asymptote
  EXPECT_NEAR(t64, limit, limit * 0.02);
}

class AllreduceMonotonicityTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Worlds, AllreduceMonotonicityTest,
                         ::testing::Values(2, 3, 4, 8, 16, 32));

TEST_P(AllreduceMonotonicityTest, MoreBytesTakeLonger) {
  const int w = GetParam();
  double prev = 0.0;
  for (double bytes = kGB / 16; bytes <= 4 * kGB; bytes *= 2) {
    const double t = NetworkModel::ring_allreduce_time(bytes, w);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(NetworkModel, ContentionFactor) {
  EXPECT_DOUBLE_EQ(NetworkModel::contention_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(NetworkModel::contention_factor(1), 1.0);
  EXPECT_DOUBLE_EQ(NetworkModel::contention_factor(3), 3.0);
}

TEST(NetworkModel, AllToAllScalesWithPerRankBytes) {
  const double t1 = NetworkModel::all_to_all_time(kGB, 8);
  const double t2 = NetworkModel::all_to_all_time(2 * kGB, 8);
  EXPECT_GT(t2, 1.9 * t1);
  EXPECT_LT(t2, 2.1 * t1);
}

}  // namespace
}  // namespace parcae
