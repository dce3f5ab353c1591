// Tests for the abstract-subtree partition (lhg/partition.h): the
// node -> shard table the sharded flood runs on over an ImplicitLhg.
//
// The properties, on K-TREE and K-DIAMOND plans:
//   * every node is owned by a shard in [0, S);
//   * every arc of a shared leaf or a group member stays in its shard;
//   * the heaviest shard carries at most the mean plus the heaviest part
//     (the LPT bound);
//   * at n = 10^6, S = 4 at most 0.1 % of arcs cross shards.

#include "lhg/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "lhg/implicit.h"
#include "lhg/lhg.h"

namespace lhg {
namespace {

using core::NodeId;

struct Shape {
  std::int64_t n;
  std::int32_t k;
  Constraint c;
};

std::string label(const Shape& s, std::int32_t shards) {
  return "n=" + std::to_string(s.n) + " k=" + std::to_string(s.k) + " " +
         to_string(s.c) + " S=" + std::to_string(shards);
}

/// Test oracle for the heaviest part, recomputed from the plan by the
/// documented rule: cut at the shallowest depth holding >= 8·S
/// interiors (else the deepest), each cut interior roots one part, and
/// everything above the cut is one more part.
std::int64_t heaviest_part(const TreePlan& plan, std::int32_t shards) {
  const std::vector<std::int32_t> depth = plan.interior_depths();
  const std::int32_t max_depth = *std::max_element(depth.begin(), depth.end());
  std::int32_t cut = max_depth;
  for (std::int32_t d = max_depth; d >= 0; --d) {
    if (std::count(depth.begin(), depth.end(), d) >= 8 * shards) cut = d;
  }
  // Subtree weight of every interior, accumulated child -> parent
  // (parents precede children, so a reverse sweep sees children first).
  std::vector<std::int64_t> weight(depth.size(), plan.k);
  for (std::size_t l = 0; l < plan.leaf_parent.size(); ++l) {
    weight[static_cast<std::size_t>(plan.leaf_parent[l])] +=
        plan.leaf_kind[l] == LeafKind::kShared ? 1 : plan.k;
  }
  std::int64_t above = plan.realized_nodes();
  std::int64_t heaviest = 0;
  for (std::size_t i = depth.size(); i-- > 0;) {
    if (depth[i] == cut) {
      heaviest = std::max(heaviest, weight[i]);
      above -= weight[i];
    } else if (depth[i] > cut) {
      weight[static_cast<std::size_t>(plan.interior_parent[i])] += weight[i];
    }
  }
  return std::max(heaviest, above);
}

void expect_partition_properties(const Shape& s, std::int32_t shards) {
  const ImplicitLhg view(s.n, s.k, s.c);
  const std::vector<std::int32_t> owner =
      subtree_partition(view.plan(), view.layout(), shards);
  const std::string what = label(s, shards);
  ASSERT_EQ(owner.size(), static_cast<std::size_t>(view.num_nodes())) << what;

  std::vector<std::int64_t> load(static_cast<std::size_t>(shards), 0);
  for (const std::int32_t o : owner) {
    ASSERT_GE(o, 0) << what;
    ASSERT_LT(o, shards) << what;
    ++load[static_cast<std::size_t>(o)];
  }

  const NodeId first_leaf = view.layout().shared_leaf(0);
  for (NodeId v = first_leaf; v < view.num_nodes(); ++v) {
    ASSERT_EQ(view.degree(v), s.k) << what;
    for (std::int32_t i = 0; i < s.k; ++i) {
      ASSERT_EQ(owner[static_cast<std::size_t>(v)],
                owner[static_cast<std::size_t>(view.neighbor(v, i))])
          << what << " leaf node " << v << " arc " << i;
    }
  }

  const std::int64_t max_load = *std::max_element(load.begin(), load.end());
  const double mean = static_cast<double>(s.n) / shards;
  EXPECT_LE(static_cast<double>(max_load),
            mean + static_cast<double>(heaviest_part(view.plan(), shards)))
      << what;
}

double cross_arc_fraction(const ImplicitLhg& view,
                          const std::vector<std::int32_t>& owner) {
  std::int64_t cross = 0;
  for (NodeId v = 0; v < view.num_nodes(); ++v) {
    for (std::int32_t i = 0; i < view.degree(v); ++i) {
      cross += owner[static_cast<std::size_t>(v)] !=
                       owner[static_cast<std::size_t>(view.neighbor(v, i))]
                   ? 1
                   : 0;
    }
  }
  return static_cast<double>(cross) / view.num_arcs();
}

TEST(SubtreePartition, OwnsEveryNodeKeepsLeafArcsLocalAndBalances) {
  const Shape shapes[] = {
      {65'536, 4, Constraint::kKTree},  {65'537, 4, Constraint::kKDiamond},
      {40'000, 3, Constraint::kKTree},  {39'999, 3, Constraint::kKDiamond},
      {10'007, 5, Constraint::kKTree},  {10'006, 5, Constraint::kKDiamond},
      {200, 4, Constraint::kKTree},     {13, 3, Constraint::kKDiamond},
  };
  for (const Shape& s : shapes) {
    for (const std::int32_t shards : {1, 2, 4, 8}) {
      expect_partition_properties(s, shards);
    }
  }
}

TEST(SubtreePartition, TinyPlanLeavesShardsEmpty) {
  // n = 2k: one interior per copy, so the whole graph is one part and
  // seven of eight shards own nothing.
  const ImplicitLhg view(8, 4);
  const std::vector<std::int32_t> owner =
      subtree_partition(view.plan(), view.layout(), 8);
  ASSERT_EQ(owner.size(), 8u);
  EXPECT_TRUE(std::all_of(owner.begin(), owner.end(),
                          [&](std::int32_t o) { return o == owner[0]; }));
}

TEST(SubtreePartition, MillionNodesCrossAtMostOnePermille) {
  for (const Constraint c : {Constraint::kKTree, Constraint::kKDiamond}) {
    const ImplicitLhg view(1'000'000, 4, c);
    const std::vector<std::int32_t> owner =
        subtree_partition(view.plan(), view.layout(), 4);
    EXPECT_LE(cross_arc_fraction(view, owner), 0.001) << to_string(c);
  }
}

TEST(SubtreePartition, RejectsBadShardCountAndForeignLayout) {
  const ImplicitLhg view(200, 4);
  EXPECT_THROW(subtree_partition(view.plan(), view.layout(), 0),
               std::invalid_argument);
  const ImplicitLhg other(300, 4);
  EXPECT_THROW(subtree_partition(view.plan(), other.layout(), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace lhg
