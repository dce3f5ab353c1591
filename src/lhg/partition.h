// Abstract-subtree partition of a pasted LHG: the node -> shard table
// the sharded flood engine (flooding/shard_sim.h) runs on for an
// `ImplicitLhg`.
//
// The LHG is k copies of one tree T pasted at the leaves.  Shared leaf s
// is adjacent to its parent's instance in *every* copy, and a group
// member only to its own copy's parent and its k−1 siblings.  So a shard
// that owns one abstract subtree of T in all k copies, plus every leaf
// under it, owns every arc of those leaves; only the tree arcs above the
// cut cross shards.  This is the hierarchical decomposition of
// Dalfó–Fiol (PAPERS.md), and at n = 10^6, k = 4 it leaves ~0.005 % of
// arcs crossing at S = 4, where contiguous id blocks cross 66.7 %
// (the id layout stores interiors copy by copy).

#pragma once

#include <cstdint>
#include <vector>

#include "lhg/layout.h"
#include "lhg/tree_plan.h"

namespace lhg {

/// Node -> shard table of the LHG realized from `plan` with id map
/// `layout` (`layout_of(plan)`), in O(n):
///
///   * T is cut at the shallowest interior depth holding at least
///     8·shards interiors (the deepest interior depth if none does);
///     each interior at the cut roots one subtree, and the interiors
///     above the cut form one more part;
///   * a part weighs k per interior, 1 per shared leaf and k per
///     unshared group hanging from it;
///   * parts go to shards by longest-processing-time bin packing —
///     heaviest first (ties: lower part index), each to the currently
///     lightest shard (ties: lower shard index) — so the heaviest shard
///     carries at most the mean load plus the heaviest part;
///   * interior (c, i) lives with i's part in every copy c; a shared
///     leaf and all k members of a group live with their parent.
///
/// Deterministic; a shard may receive nothing (tiny plans, many shards).
std::vector<std::int32_t> subtree_partition(const TreePlan& plan,
                                            const Layout& layout,
                                            std::int32_t shards);

}  // namespace lhg
