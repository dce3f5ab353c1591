#include "lhg/partition.h"

#include <algorithm>
#include <numeric>

#include "core/check.h"

namespace lhg {

namespace {

// Subtrees wanted per shard at the cut: enough parts that LPT can even
// out the size difference between the tree's fuller and emptier sides.
constexpr std::int64_t kPartsPerShard = 8;

}  // namespace

std::vector<std::int32_t> subtree_partition(const TreePlan& plan,
                                            const Layout& layout,
                                            std::int32_t shards) {
  LHG_CHECK(shards > 0, "subtree_partition: shard count {} must be > 0",
            shards);
  LHG_CHECK(plan.num_interiors() >= 1 && layout.k == plan.k &&
                layout.num_interiors == plan.num_interiors() &&
                layout.leaf_slot.size() == plan.leaf_parent.size(),
            "subtree_partition: layout does not match the plan");
  const std::int32_t k = plan.k;
  const auto interiors = static_cast<std::size_t>(plan.num_interiors());
  const std::vector<std::int32_t> depth = plan.interior_depths();

  // Cut depth: the shallowest with >= kPartsPerShard·S interiors.
  const std::int32_t max_depth = *std::max_element(depth.begin(), depth.end());
  std::vector<std::int64_t> per_depth(static_cast<std::size_t>(max_depth) + 1,
                                      0);
  for (const std::int32_t d : depth) ++per_depth[static_cast<std::size_t>(d)];
  std::int32_t cut = max_depth;
  for (std::int32_t d = 0; d <= max_depth; ++d) {
    if (per_depth[static_cast<std::size_t>(d)] >= kPartsPerShard * shards) {
      cut = d;
      break;
    }
  }

  // Part of each interior: 0 above the cut, else 1 + the BFS rank of
  // its subtree root (parents precede children in the plan).
  std::vector<std::int32_t> part(interiors, 0);
  std::int32_t parts = 1;
  for (std::size_t i = 0; i < interiors; ++i) {
    if (depth[i] == cut) {
      part[i] = parts++;
    } else if (depth[i] > cut) {
      part[i] = part[static_cast<std::size_t>(plan.interior_parent[i])];
    }
  }
  std::vector<std::int64_t> weight(static_cast<std::size_t>(parts), 0);
  for (std::size_t i = 0; i < interiors; ++i) {
    weight[static_cast<std::size_t>(part[i])] += k;
  }
  for (std::size_t l = 0; l < plan.leaf_parent.size(); ++l) {
    const auto p = static_cast<std::size_t>(plan.leaf_parent[l]);
    weight[static_cast<std::size_t>(part[p])] +=
        plan.leaf_kind[l] == LeafKind::kShared ? 1 : k;
  }

  // LPT: heaviest part first, onto the lightest shard.
  std::vector<std::int32_t> order(static_cast<std::size_t>(parts));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return weight[static_cast<std::size_t>(a)] >
                            weight[static_cast<std::size_t>(b)];
                   });
  std::vector<std::int64_t> load(static_cast<std::size_t>(shards), 0);
  std::vector<std::int32_t> shard_of_part(static_cast<std::size_t>(parts));
  for (const std::int32_t p : order) {
    const auto lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    shard_of_part[static_cast<std::size_t>(p)] =
        static_cast<std::int32_t>(lightest);
    load[lightest] += weight[static_cast<std::size_t>(p)];
  }

  std::vector<std::int32_t> owner(
      static_cast<std::size_t>(layout.total_nodes()));
  auto own = [&](core::NodeId v, std::int32_t shard) {
    owner[static_cast<std::size_t>(v)] = shard;
  };
  for (std::size_t i = 0; i < interiors; ++i) {
    const std::int32_t shard = shard_of_part[static_cast<std::size_t>(part[i])];
    for (std::int32_t c = 0; c < k; ++c) {
      own(layout.interior(c, static_cast<std::int32_t>(i)), shard);
    }
  }
  for (std::size_t l = 0; l < plan.leaf_parent.size(); ++l) {
    const std::int32_t shard = shard_of_part[static_cast<std::size_t>(
        part[static_cast<std::size_t>(plan.leaf_parent[l])])];
    const std::int32_t slot = layout.leaf_slot[l];
    if (plan.leaf_kind[l] == LeafKind::kShared) {
      own(layout.shared_leaf(slot), shard);
    } else {
      for (std::int32_t c = 0; c < k; ++c) {
        own(layout.group_member(slot, c), shard);
      }
    }
  }
  return owner;
}

}  // namespace lhg
