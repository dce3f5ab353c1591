#include "lhg/ktree.h"

#include "core/check.h"

namespace lhg::ktree {

namespace {

// 2k and the lattice step 2(k−1), in 64 bits: k may be up to 2^31 − 1.
std::int64_t two_k(std::int32_t k) { return 2 * std::int64_t{k}; }
std::int64_t step_of(std::int32_t k) { return 2 * (std::int64_t{k} - 1); }

void check_args(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-TREE requires k >= 2, got {}", k);
  LHG_CHECK(n >= two_k(k),
            "no K-TREE LHG exists for (n={}, k={}): need n >= 2k = {}", n, k,
            two_k(k));
}

}  // namespace

TreePlan plan(std::int64_t n, std::int32_t k) {
  check_args(n, k);
  const std::int64_t step = step_of(k);
  const std::int64_t alpha = (n - two_k(k)) / step;
  const std::int64_t j = (n - two_k(k)) % step;  // 0 <= j <= 2k-3
  TreePlan tree = base_plan(k, static_cast<std::int32_t>(alpha + 1));
  if (j > 0) {
    // One bottom interior absorbs the whole deficit (j <= 2k−3, the
    // rule-3d cap), keeping every other node at its regular degree.
    const auto hosts = bottom_interiors(tree);
    for (std::int64_t b = 0; b < j; ++b) add_extra_leaf(tree, hosts.front());
  }
  tree.check_invariants(max_added_per_bottom(k));
  return tree;
}

bool exists(std::int64_t n, std::int32_t k) {
  LHG_CHECK(k >= 2, "K-TREE requires k >= 2, got {}", k);
  return n >= two_k(k);
}

bool regular_exists(std::int64_t n, std::int32_t k) {
  return exists(n, k) && (n - two_k(k)) % step_of(k) == 0;
}

}  // namespace lhg::ktree
