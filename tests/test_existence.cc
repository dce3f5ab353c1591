// Tests for the EX / REG characteristic functions of the three
// constraints, including the theorems of the follow-on analysis:
//   EX_KTREE(n,k) ⇔ n >= 2k ⇔ EX_KDIAMOND(n,k)
//   REG_KTREE(n,k) ⇔ n = 2k + 2α(k−1)
//   REG_KDIAMOND(n,k) ⇔ n = 2k + α(k−1)
//   REG_KTREE ⇒ REG_KDIAMOND, and infinitely many pairs separate them.
//   Strict J&D misses infinitely many pairs that K-TREE covers.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "lhg/lhg.h"

namespace lhg {
namespace {

TEST(Existence, MinimumIsTwoK) {
  for (std::int32_t k = 2; k <= 8; ++k) {
    for (std::int64_t n = k + 1; n < 2 * k; ++n) {
      EXPECT_FALSE(exists(n, k, Constraint::kKTree)) << n << "," << k;
      EXPECT_FALSE(exists(n, k, Constraint::kKDiamond)) << n << "," << k;
      EXPECT_FALSE(exists(n, k, Constraint::kStrictJD)) << n << "," << k;
    }
    EXPECT_TRUE(exists(2 * k, k, Constraint::kKTree));
    EXPECT_TRUE(exists(2 * k, k, Constraint::kKDiamond));
    EXPECT_TRUE(exists(2 * k, k, Constraint::kStrictJD));
  }
}

TEST(Existence, KTreeAndKDiamondAreTotalAboveTwoK) {
  for (std::int32_t k = 2; k <= 7; ++k) {
    for (std::int64_t n = 2 * k; n <= 2 * k + 200; ++n) {
      EXPECT_TRUE(exists(n, k, Constraint::kKTree)) << n << "," << k;
      EXPECT_TRUE(exists(n, k, Constraint::kKDiamond)) << n << "," << k;
    }
  }
}

TEST(Existence, CorollaryOneEquivalence) {
  // EX_KTREE(n,k) ⇔ EX_KDIAMOND(n,k) everywhere.
  for (std::int32_t k = 2; k <= 6; ++k) {
    for (std::int64_t n = k + 1; n <= 150; ++n) {
      EXPECT_EQ(exists(n, k, Constraint::kKTree),
                exists(n, k, Constraint::kKDiamond))
          << n << "," << k;
    }
  }
}

TEST(Existence, StrictJdMissesNineThree) {
  // The worked example: (9,3) has a K-TREE LHG but no strict-J&D one.
  EXPECT_TRUE(exists(9, 3, Constraint::kKTree));
  EXPECT_FALSE(exists(9, 3, Constraint::kStrictJD));
}

TEST(Existence, StrictJdSubsetOfKTree) {
  for (std::int32_t k = 2; k <= 6; ++k) {
    for (std::int64_t n = k + 1; n <= 150; ++n) {
      if (exists(n, k, Constraint::kStrictJD)) {
        EXPECT_TRUE(exists(n, k, Constraint::kKTree)) << n << "," << k;
      }
    }
  }
}

TEST(Existence, StrictJdHasInfinitelyManyGaps) {
  // Early gaps for k=3 at n = 9 and similar residues; count them on a
  // long window to exhibit the "infinitely many" pattern.
  std::int64_t gaps = 0;
  for (std::int64_t n = 6; n <= 406; ++n) {
    if (exists(n, 3, Constraint::kKTree) &&
        !exists(n, 3, Constraint::kStrictJD)) {
      ++gaps;
    }
  }
  EXPECT_GT(gaps, 0);
}

TEST(Regularity, KTreeLattice) {
  for (std::int32_t k = 2; k <= 7; ++k) {
    for (std::int64_t n = 2 * k; n <= 2 * k + 120; ++n) {
      const bool on_lattice = (n - 2 * k) % (2 * (k - 1)) == 0;
      EXPECT_EQ(regular_exists(n, k, Constraint::kKTree), on_lattice)
          << n << "," << k;
    }
  }
}

TEST(Regularity, KDiamondLattice) {
  for (std::int32_t k = 2; k <= 7; ++k) {
    for (std::int64_t n = 2 * k; n <= 2 * k + 120; ++n) {
      const bool on_lattice = (n - 2 * k) % (k - 1) == 0;
      EXPECT_EQ(regular_exists(n, k, Constraint::kKDiamond), on_lattice)
          << n << "," << k;
    }
  }
}

TEST(Regularity, CorollaryTwoImplication) {
  // REG_KTREE(n,k) ⇒ REG_KDIAMOND(n,k).
  for (std::int32_t k = 2; k <= 7; ++k) {
    for (std::int64_t n = 2 * k; n <= 300; ++n) {
      if (regular_exists(n, k, Constraint::kKTree)) {
        EXPECT_TRUE(regular_exists(n, k, Constraint::kKDiamond))
            << n << "," << k;
      }
    }
  }
}

TEST(Regularity, TheoremSevenSeparation) {
  // Odd α: REG_KDIAMOND true, REG_KTREE false — infinitely many pairs.
  for (std::int32_t k = 3; k <= 7; ++k) {
    for (std::int64_t alpha = 1; alpha <= 21; alpha += 2) {
      const std::int64_t n = 2 * k + alpha * (k - 1);
      EXPECT_TRUE(regular_exists(n, k, Constraint::kKDiamond))
          << n << "," << k;
      EXPECT_FALSE(regular_exists(n, k, Constraint::kKTree)) << n << "," << k;
    }
  }
}

TEST(Regularity, BuildersDeliverRegularityExactlyOnTheLattice) {
  // The predicate and the realized graph must agree.
  for (std::int32_t k = 3; k <= 5; ++k) {
    for (std::int64_t n = 2 * k; n <= 2 * k + 40; ++n) {
      for (const auto constraint :
           {Constraint::kKTree, Constraint::kKDiamond}) {
        const auto g = build(static_cast<core::NodeId>(n), k, constraint);
        EXPECT_EQ(g.is_regular(k), regular_exists(n, k, constraint))
            << n << "," << k << "," << to_string(constraint);
      }
    }
  }
}

TEST(Regularity, RegularImpliesMinimumEdgeCount) {
  // A k-regular LHG meets Harary's lower bound ⌈kn/2⌉ exactly.
  for (std::int32_t k = 3; k <= 5; ++k) {
    for (std::int64_t alpha = 0; alpha <= 6; ++alpha) {
      const auto n = static_cast<core::NodeId>(2 * k + alpha * (k - 1));
      if (!regular_exists(n, k, Constraint::kKDiamond)) continue;
      const auto g = build(n, k, Constraint::kKDiamond);
      EXPECT_EQ(g.num_edges(), (static_cast<std::int64_t>(k) * n + 1) / 2);
    }
  }
}

TEST(Existence, TwoKPastInt32IsComputedIn64Bits) {
  // 2k = 2^31 overflows int32; 20 nodes can never host k = 2^30.
  constexpr std::int32_t k = 1 << 30;
  for (const Constraint c :
       {Constraint::kStrictJD, Constraint::kKTree, Constraint::kKDiamond}) {
    EXPECT_FALSE(exists(20, k, c)) << to_string(c);
    EXPECT_FALSE(regular_exists(20, k, c)) << to_string(c);
    EXPECT_THROW(build(20, k, c), std::invalid_argument) << to_string(c);
  }
  EXPECT_TRUE(exists(std::int64_t{1} << 31, k, Constraint::kKTree));
}

TEST(Existence, ValidationErrors) {
  EXPECT_THROW(exists(10, 1, Constraint::kKTree), std::invalid_argument);
  EXPECT_THROW(exists(10, 0, Constraint::kKDiamond), std::invalid_argument);
  EXPECT_THROW(regular_exists(10, 1, Constraint::kStrictJD),
               std::invalid_argument);
}

}  // namespace
}  // namespace lhg
