#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <tuple>

#include "rri/core/double_maxplus.hpp"

namespace {

using namespace rri::core;

::testing::AssertionResult tables_equal(const FTable& a, const FTable& b) {
  for (int i1 = 0; i1 < a.m(); ++i1) {
    for (int j1 = i1; j1 < a.m(); ++j1) {
      for (int i2 = 0; i2 < a.n(); ++i2) {
        for (int j2 = i2; j2 < a.n(); ++j2) {
          if (a.at(i1, j1, i2, j2) != b.at(i1, j1, i2, j2)) {
            return ::testing::AssertionFailure()
                   << "F(" << i1 << "," << j1 << "," << i2 << "," << j2
                   << "): " << a.at(i1, j1, i2, j2)
                   << " != " << b.at(i1, j1, i2, j2);
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DmpInputs, DeterministicAndSeedSensitive) {
  EXPECT_EQ(dmp_input_value(1, 0, 0, 2, 3), dmp_input_value(1, 0, 0, 2, 3));
  EXPECT_NE(dmp_input_value(1, 0, 0, 2, 3), dmp_input_value(2, 0, 0, 2, 3));
}

TEST(DmpInputs, ValuesInRange) {
  for (std::uint64_t seed : {1ull, 42ull, 12345ull}) {
    for (int i = 0; i < 6; ++i) {
      for (int j = i; j < 6; ++j) {
        const float v = dmp_input_value(seed, i, i, i, j);
        EXPECT_GE(v, 0.0f);
        EXPECT_LT(v, 4.0f);
      }
    }
  }
}

TEST(DmpReference, InteriorCellIsMaxOverSplits) {
  // 2x2: F(0,1,0,1) = F(0,0,0,0) + F(1,1,1,1), the only split.
  const std::uint64_t seed = 9;
  const float expected =
      dmp_input_value(seed, 0, 0, 0, 0) + dmp_input_value(seed, 1, 1, 1, 1);
  EXPECT_EQ(dmp_reference_cell(2, 2, seed, 0, 1, 0, 1), expected);
}

/// Every cell of the baseline fill equals the recursive reference.
class DmpBaselineVsReference
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DmpBaselineVsReference, AllCells) {
  const auto [m, n] = GetParam();
  const std::uint64_t seed = 31337;
  const FTable f = solve_double_maxplus(m, n, seed, DmpVariant::kBaseline);
  for (int i1 = 0; i1 < m; ++i1) {
    for (int j1 = i1; j1 < m; ++j1) {
      for (int i2 = 0; i2 < n; ++i2) {
        for (int j2 = i2; j2 < n; ++j2) {
          ASSERT_EQ(f.at(i1, j1, i2, j2),
                    dmp_reference_cell(m, n, seed, i1, j1, i2, j2))
              << i1 << " " << j1 << " " << i2 << " " << j2;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DmpBaselineVsReference,
                         ::testing::Values(std::pair{1, 1}, std::pair{2, 2},
                                           std::pair{3, 3}, std::pair{4, 4},
                                           std::pair{4, 2}, std::pair{2, 5}));

struct DmpCase {
  DmpVariant variant;
  int m, n;
  TileShape3 tile;
};

class DmpVariantEquivalence : public ::testing::TestWithParam<DmpCase> {};

TEST_P(DmpVariantEquivalence, MatchesBaseline) {
  const auto p = GetParam();
  const std::uint64_t seed = 777;
  const FTable ref = solve_double_maxplus(p.m, p.n, seed, DmpVariant::kBaseline);
  const FTable got = solve_double_maxplus(p.m, p.n, seed, p.variant, p.tile);
  EXPECT_TRUE(tables_equal(got, ref)) << dmp_variant_name(p.variant);
}

std::vector<DmpCase> dmp_cases() {
  std::vector<DmpCase> cases;
  for (const DmpVariant v :
       {DmpVariant::kPermuted, DmpVariant::kCoarse, DmpVariant::kFine,
        DmpVariant::kTiled}) {
    cases.push_back({v, 9, 12, {4, 2, 0}});
    cases.push_back({v, 12, 9, {3, 3, 3}});
    cases.push_back({v, 1, 10, {2, 2, 2}});
    cases.push_back({v, 10, 1, {2, 2, 2}});
    cases.push_back({v, 16, 16, {5, 4, 6}});
  }
  // Sizes around the default 32-row tile and the 16-lane zmm width, on
  // the default tile (tiled) and the row kernels (fine).
  for (const DmpVariant v : {DmpVariant::kTiled, DmpVariant::kFine}) {
    cases.push_back({v, 5, 33, {}});
    cases.push_back({v, 4, 32, {}});
    cases.push_back({v, 6, 65, {}});
    cases.push_back({v, 3, 31, {}});
    cases.push_back({v, 8, 40, {}});
  }
  // Degenerate tile shapes only matter for the tiled variant.
  cases.push_back({DmpVariant::kTiled, 10, 10, {1, 1, 1}});
  cases.push_back({DmpVariant::kTiled, 10, 10, {0, 0, 0}});
  cases.push_back({DmpVariant::kTiled, 10, 10, {64, 64, 64}});
  cases.push_back({DmpVariant::kTiled, 11, 13, {1, 64, 2}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, DmpVariantEquivalence,
                         ::testing::ValuesIn(dmp_cases()),
                         [](const auto& info) {
                           return std::string(
                                      dmp_variant_name(info.param.variant)) +
                                  "_m" + std::to_string(info.param.m) + "_n" +
                                  std::to_string(info.param.n) + "_idx" +
                                  std::to_string(info.index);
                         });

TEST(DmpProperties, InputCellsSurviveTheFill) {
  const int m = 7;
  const int n = 8;
  const std::uint64_t seed = 2024;
  for (const DmpVariant v : all_dmp_variants()) {
    const FTable f = solve_double_maxplus(m, n, seed, v, {2, 2, 2});
    for (int i1 = 0; i1 < m; ++i1) {
      for (int i2 = 0; i2 < n; ++i2) {
        for (int j2 = i2; j2 < n; ++j2) {
          ASSERT_EQ(f.at(i1, i1, i2, j2),
                    dmp_input_value(seed, i1, i1, i2, j2))
              << dmp_variant_name(v);
        }
      }
    }
    for (int i1 = 0; i1 < m; ++i1) {
      for (int j1 = i1; j1 < m; ++j1) {
        for (int i2 = 0; i2 < n; ++i2) {
          ASSERT_EQ(f.at(i1, j1, i2, i2),
                    dmp_input_value(seed, i1, j1, i2, i2))
              << dmp_variant_name(v);
        }
      }
    }
  }
}

TEST(DmpProperties, InteriorValuesFiniteAndBounded) {
  // Each interior value is a sum of at most (m + n) boundary inputs along
  // the split tree, each < 4; a crude but real invariant.
  const int m = 8;
  const int n = 8;
  const FTable f = solve_double_maxplus(m, n, 5, DmpVariant::kPermuted);
  for (int i1 = 0; i1 < m; ++i1) {
    for (int j1 = i1; j1 < m; ++j1) {
      for (int i2 = 0; i2 < n; ++i2) {
        for (int j2 = i2; j2 < n; ++j2) {
          const float v = f.at(i1, j1, i2, j2);
          ASSERT_TRUE(std::isfinite(v));
          ASSERT_GE(v, 0.0f);
          ASSERT_LT(v, 4.0f * (m + n));
        }
      }
    }
  }
}

TEST(DmpProperties, DeterministicAcrossRuns) {
  const FTable a = solve_double_maxplus(10, 10, 99, DmpVariant::kTiled, {3, 2, 0});
  const FTable b = solve_double_maxplus(10, 10, 99, DmpVariant::kTiled, {3, 2, 0});
  EXPECT_TRUE(tables_equal(a, b));
}

TEST(DmpApi, VariantNamesStable) {
  EXPECT_STREQ(dmp_variant_name(DmpVariant::kBaseline), "baseline");
  EXPECT_STREQ(dmp_variant_name(DmpVariant::kTiled), "tiled");
  EXPECT_EQ(all_dmp_variants().size(), 5u);
}

// -------------------------------------------------------- log-sum-exp twin

::testing::AssertionResult ztables_equal(const ZTable& a, const ZTable& b) {
  for (int i1 = 0; i1 < a.m(); ++i1) {
    for (int j1 = i1; j1 < a.m(); ++j1) {
      for (int i2 = 0; i2 < a.n(); ++i2) {
        for (int j2 = i2; j2 < a.n(); ++j2) {
          if (a.at(i1, j1, i2, j2) != b.at(i1, j1, i2, j2)) {
            return ::testing::AssertionFailure()
                   << "Z(" << i1 << "," << j1 << "," << i2 << "," << j2
                   << "): " << a.at(i1, j1, i2, j2)
                   << " != " << b.at(i1, j1, i2, j2);
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every variant of the lse twin is bit-identical to the baseline: the
/// pinned per-cell reduction order is the whole contract (log-add-exp
/// does not reassociate exactly, so this would fail for ANY reordering).
TEST(DmpLse, AllVariantsBitIdenticalToBaseline) {
  const std::uint64_t seed = 777;
  for (const auto& [m, n] : {std::pair{9, 12}, std::pair{12, 9},
                             std::pair{1, 10}, std::pair{16, 16}}) {
    const ZTable ref = solve_double_lse(m, n, seed, DmpVariant::kBaseline);
    for (const DmpVariant v : all_dmp_variants()) {
      const ZTable got = solve_double_lse(m, n, seed, v, {3, 2, 5});
      ASSERT_TRUE(ztables_equal(got, ref))
          << dmp_variant_name(v) << " m=" << m << " n=" << n;
    }
  }
}

/// The threaded band stages at an odd thread count: kFine (one triangle's
/// row blocks) and kTiled (every triangle of a diagonal), including fewer
/// work items than threads and a last row block shorter than ti2.
TEST(DmpThreads, FineAndTiledBitIdenticalAtThreeThreads) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(3);
  const std::uint64_t seed = 4242;
  for (const auto& [m, n, tile] :
       {std::tuple{9, 45, TileShape3{}}, std::tuple{2, 37, TileShape3{}},
        std::tuple{12, 9, TileShape3{1, 2, 0}},
        std::tuple{5, 17, TileShape3{4, 3, 0}}}) {
    const FTable ref = solve_double_maxplus(m, n, seed, DmpVariant::kBaseline);
    const ZTable zref = solve_double_lse(m, n, seed, DmpVariant::kBaseline);
    for (const DmpVariant v : {DmpVariant::kFine, DmpVariant::kTiled}) {
      EXPECT_TRUE(tables_equal(solve_double_maxplus(m, n, seed, v, tile), ref))
          << dmp_variant_name(v) << " m=" << m << " n=" << n;
      EXPECT_TRUE(ztables_equal(solve_double_lse(m, n, seed, v, tile), zref))
          << dmp_variant_name(v) << " lse m=" << m << " n=" << n;
    }
  }
  omp_set_num_threads(saved);
}

/// Interior cells against the recursive reference — with a tolerance,
/// because the contract with the reference is the math, not the rounding.
TEST(DmpLse, MatchesRecursiveReference) {
  const std::uint64_t seed = 31337;
  for (const auto& [m, n] : {std::pair{2, 2}, std::pair{3, 3},
                             std::pair{4, 2}, std::pair{2, 5}}) {
    const ZTable z = solve_double_lse(m, n, seed, DmpVariant::kBaseline);
    for (int i1 = 0; i1 < m; ++i1) {
      for (int j1 = i1; j1 < m; ++j1) {
        for (int i2 = 0; i2 < n; ++i2) {
          for (int j2 = i2; j2 < n; ++j2) {
            const double expected =
                dmp_lse_reference_cell(m, n, seed, i1, j1, i2, j2);
            ASSERT_NEAR(z.at(i1, j1, i2, j2), expected,
                        1e-9 * std::max(1.0, std::fabs(expected)))
                << i1 << " " << j1 << " " << i2 << " " << j2;
          }
        }
      }
    }
  }
}

/// The lse fill dominates the max-plus fill cell-for-cell: a log-sum over
/// the same split terms is at least the max over them.
TEST(DmpLse, DominatesTheTropicalFill) {
  const int m = 7;
  const int n = 8;
  const std::uint64_t seed = 2024;
  const FTable f = solve_double_maxplus(m, n, seed, DmpVariant::kBaseline);
  const ZTable z = solve_double_lse(m, n, seed, DmpVariant::kBaseline);
  for (int i1 = 0; i1 < m; ++i1) {
    for (int j1 = i1; j1 < m; ++j1) {
      for (int i2 = 0; i2 < n; ++i2) {
        for (int j2 = i2; j2 < n; ++j2) {
          ASSERT_GE(z.at(i1, j1, i2, j2) + 1e-9,
                    static_cast<double>(f.at(i1, j1, i2, j2)))
              << i1 << " " << j1 << " " << i2 << " " << j2;
        }
      }
    }
  }
}

}  // namespace
