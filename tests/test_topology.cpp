#include "mesh/topology.hpp"

#include <gtest/gtest.h>

namespace lrc::mesh {
namespace {

TEST(Topology, SquareMesh64) {
  Topology t(64);
  EXPECT_EQ(t.rows(), 8u);
  EXPECT_EQ(t.cols(), 8u);
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_EQ(t.hops(0, 63), 14u);  // corner to corner
  EXPECT_EQ(t.hops(0, 7), 7u);    // along a row
  EXPECT_EQ(t.hops(0, 56), 7u);   // along a column
}

TEST(Topology, HopsAreSymmetric) {
  Topology t(16);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      EXPECT_EQ(t.hops(a, b), t.hops(b, a));
    }
  }
}

TEST(Topology, TriangleInequality) {
  Topology t(32);
  for (NodeId a = 0; a < 32; ++a) {
    for (NodeId b = 0; b < 32; ++b) {
      for (NodeId c = 0; c < 32; c += 7) {
        EXPECT_LE(t.hops(a, b), t.hops(a, c) + t.hops(c, b));
      }
    }
  }
}

TEST(Topology, SingleNode) {
  Topology t(1);
  EXPECT_EQ(t.hops(0, 0), 0u);
  EXPECT_DOUBLE_EQ(t.mean_hops(), 0.0);
}

TEST(Topology, RejectsInvalidSizes) {
  EXPECT_THROW(Topology(0), std::invalid_argument);
  EXPECT_THROW(Topology(Topology::kMaxNodes + 1), std::invalid_argument);
  // Above kMaxProcs is fine for the topology itself; only the protocols'
  // bitmask directory caps the processor count.
  EXPECT_NO_THROW(Topology(65));
  EXPECT_NO_THROW(Topology(Topology::kMaxNodes));
}

class TopologyParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(TopologyParam, CoversAllNodes) {
  const unsigned n = GetParam();
  Topology t(n);
  // The mesh is exactly rectangular: rows is the largest divisor of n not
  // exceeding sqrt(n), so rows * cols == n with no padded positions.
  EXPECT_EQ(t.rows() * t.cols(), n);
  EXPECT_LE(t.rows(), t.cols());
  // Every node has valid coordinates.
  for (NodeId i = 0; i < n; ++i) {
    EXPECT_LT(t.row_of(i), t.rows());
    EXPECT_LT(t.col_of(i), t.cols());
  }
  // Distinct nodes have distinct coordinates.
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      EXPECT_TRUE(t.row_of(a) != t.row_of(b) || t.col_of(a) != t.col_of(b));
    }
  }
}

TEST_P(TopologyParam, MeanHopsPositiveAndBounded) {
  const unsigned n = GetParam();
  if (n < 2) return;
  Topology t(n);
  const double mean = t.mean_hops();
  EXPECT_GT(mean, 0.0);
  EXPECT_LE(mean, static_cast<double>(t.rows() + t.cols()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, TopologyParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u,
                                           24u, 32u, 48u, 64u));

}  // namespace
}  // namespace lrc::mesh
