// The library's central property suite: every graph produced by every
// constraint, across a dense (n, k) grid, must satisfy the full LHG
// definition — P1 (κ >= k), P2 (λ >= k), P3 (link minimality) and P4
// (logarithmic diameter) — verified from first principles.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/bfs.h"
#include "core/connectivity.h"
#include "core/diameter.h"
#include "lhg/lhg.h"
#include "lhg/verifier.h"

namespace lhg {
namespace {

using core::NodeId;

class LhgDefinition
    : public ::testing::TestWithParam<std::tuple<Constraint, int, int>> {};

TEST_P(LhgDefinition, SatisfiesAllFourProperties) {
  const auto [constraint, k, offset] = GetParam();
  const std::int64_t n = 2 * k + offset;
  if (!exists(n, k, constraint)) {
    GTEST_SKIP() << "pair not realizable under " << to_string(constraint);
  }
  const auto g = build(static_cast<NodeId>(n), k, constraint);
  ASSERT_EQ(g.num_nodes(), n);

  VerifyOptions options;
  const auto report = verify(g, k, options);
  EXPECT_TRUE(report.p1_node_connected)
      << to_string(constraint) << " n=" << n << " k=" << k
      << " kappa=" << report.node_connectivity;
  EXPECT_TRUE(report.p2_link_connected)
      << to_string(constraint) << " n=" << n << " k=" << k
      << " lambda=" << report.edge_connectivity;
  EXPECT_TRUE(report.p3_link_minimal)
      << to_string(constraint) << " n=" << n << " k=" << k << " violations="
      << report.minimality_violations;
  EXPECT_TRUE(report.p4_log_diameter)
      << to_string(constraint) << " n=" << n << " k=" << k
      << " diameter=" << report.diameter;
}

// Dense small grid: every offset hits a different residue class of the
// planner (regular lattice points, added-leaf cases, unshared groups).
INSTANTIATE_TEST_SUITE_P(
    DenseGrid, LhgDefinition,
    ::testing::Combine(::testing::Values(Constraint::kStrictJD,
                                         Constraint::kKTree,
                                         Constraint::kKDiamond),
                       ::testing::Values(2, 3, 4, 5),
                       ::testing::Range(0, 18)));

// Sparse larger pairs (one per residue family) to catch depth > 2 trees.
INSTANTIATE_TEST_SUITE_P(
    DeepTrees, LhgDefinition,
    ::testing::Combine(::testing::Values(Constraint::kStrictJD,
                                         Constraint::kKTree,
                                         Constraint::kKDiamond),
                       ::testing::Values(3, 4),
                       ::testing::Values(40, 41, 57, 96, 111)));

TEST(LhgScaling, DiameterIsLogarithmic) {
  // Doubling n must add roughly a constant to the diameter (log growth),
  // not double it (linear growth).
  const std::int32_t k = 4;
  std::int32_t previous = 0;
  for (const NodeId n : {64, 128, 256, 512, 1024, 2048}) {
    const auto g = build(n, k, Constraint::kKTree);
    const auto d = core::diameter(g);
    if (previous > 0) {
      EXPECT_LE(d, previous + 4) << "n=" << n;
      EXPECT_GE(d, previous) << "n=" << n;
    }
    previous = d;
  }
}

TEST(LhgScaling, DiameterBeatsHararyBeyondCrossover) {
  // By n = 256 the LHG diameter must be well below the circulant's.
  const std::int32_t k = 4;
  const auto lhg_diameter = core::diameter(build(1024, k));
  EXPECT_LE(lhg_diameter, 16);  // ~2·log3(I) + 2
}

TEST(LhgScaling, EveryCopyRootReachesAllLeavesFast) {
  // Radius from a root is at most the tree height + 1 cross-hop.
  const auto g = build(350, 3, Constraint::kKTree);
  const auto ecc = core::eccentricity(g, 0);
  EXPECT_LE(ecc, core::diameter(g));
}

TEST(LhgMenger, DisjointPathCertificates) {
  // Menger witnesses: k vertex-disjoint paths between nodes in
  // different tree copies and within the same copy.
  const std::int32_t k = 4;
  Layout layout;
  const auto g = build_with_layout(38, k, Constraint::kKTree, &layout);
  // Roots of two different copies.
  auto paths = core::vertex_disjoint_paths(g, layout.root(0), layout.root(3), k);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(paths->size(), static_cast<std::size_t>(k));
  // A root and a shared leaf.
  paths = core::vertex_disjoint_paths(g, layout.root(1),
                                      layout.shared_leaf(0), k);
  ASSERT_TRUE(paths.has_value());
  EXPECT_EQ(paths->size(), static_cast<std::size_t>(k));
}

}  // namespace
}  // namespace lhg
