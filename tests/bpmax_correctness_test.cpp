#include <gtest/gtest.h>

#include <omp.h>

#include <random>
#include <string>

#include "rri/core/bpmax.hpp"
#include "rri/core/bpmax_kernels.hpp"
#include "rri/core/bpmax_layout.hpp"
#include "rri/core/exhaustive.hpp"
#include "rri/rna/random.hpp"

namespace {

using namespace rri;
using core::BpmaxOptions;
using core::Variant;

rna::Sequence seq(const std::string& s) { return rna::Sequence::from_string(s); }

rna::Sequence decode(int code, int len) {
  std::vector<rna::Base> bases;
  for (int p = 0; p < len; ++p) {
    bases.push_back(static_cast<rna::Base>(code % 4));
    code /= 4;
  }
  return rna::Sequence(std::move(bases));
}

/// Compare every valid cell of two F-tables.
::testing::AssertionResult tables_equal(const core::FTable& a,
                                        const core::FTable& b) {
  if (a.m() != b.m() || a.n() != b.n()) {
    return ::testing::AssertionFailure() << "dimension mismatch";
  }
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

// ------------------------------------------ ground truth (tiny inputs)

/// Every sequence pair with both lengths in {1, 2}: DP == enumeration.
TEST(BpmaxGroundTruth, AllTinyPairsExhaustive) {
  const auto model = rna::ScoringModel::bpmax_default();
  for (int l1 = 1; l1 <= 2; ++l1) {
    for (int l2 = 1; l2 <= 2; ++l2) {
      const int c1 = l1 == 1 ? 4 : 16;
      const int c2 = l2 == 1 ? 4 : 16;
      for (int a = 0; a < c1; ++a) {
        for (int b = 0; b < c2; ++b) {
          const auto s1 = decode(a, l1);
          const auto s2 = decode(b, l2);
          BpmaxOptions opt;
          opt.variant = Variant::kBaseline;
          const float dp = core::bpmax_score(s1, s2, model, opt);
          const auto ex = core::exhaustive_bpmax(s1, s2, model);
          ASSERT_EQ(dp, ex.score)
              << s1.to_string() << " / " << s2.to_string();
        }
      }
    }
  }
}

/// Length-3 vs length-3: all 4096 pairs.
TEST(BpmaxGroundTruth, AllLength3PairsExhaustive) {
  const auto model = rna::ScoringModel::bpmax_default();
  BpmaxOptions opt;
  opt.variant = Variant::kBaseline;
  for (int a = 0; a < 64; ++a) {
    for (int b = 0; b < 64; ++b) {
      const auto s1 = decode(a, 3);
      const auto s2 = decode(b, 3);
      ASSERT_EQ(core::bpmax_score(s1, s2, model, opt),
                core::exhaustive_bpmax(s1, s2, model).score)
          << s1.to_string() << " / " << s2.to_string();
    }
  }
}

struct RandomGroundTruthCase {
  std::uint64_t seed;
  int m, n;
};

class BpmaxRandomGroundTruth
    : public ::testing::TestWithParam<RandomGroundTruthCase> {};

TEST_P(BpmaxRandomGroundTruth, MatchesExhaustive) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed);
  const auto s1 = rna::random_sequence(static_cast<std::size_t>(p.m), rng);
  const auto s2 = rna::random_sequence(static_cast<std::size_t>(p.n), rng);
  const auto model = rna::ScoringModel::bpmax_default();
  BpmaxOptions opt;
  opt.variant = Variant::kBaseline;
  EXPECT_EQ(core::bpmax_score(s1, s2, model, opt),
            core::exhaustive_bpmax(s1, s2, model).score)
      << s1.to_string() << " / " << s2.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BpmaxRandomGroundTruth,
    ::testing::Values(RandomGroundTruthCase{1, 4, 4},
                      RandomGroundTruthCase{2, 5, 5},
                      RandomGroundTruthCase{3, 6, 4},
                      RandomGroundTruthCase{4, 4, 6},
                      RandomGroundTruthCase{5, 6, 6},
                      RandomGroundTruthCase{6, 7, 3},
                      RandomGroundTruthCase{7, 3, 7},
                      RandomGroundTruthCase{8, 5, 6},
                      RandomGroundTruthCase{9, 6, 5},
                      RandomGroundTruthCase{10, 7, 5}));

TEST(BpmaxGroundTruth, UnitModelMatchesExhaustive) {
  const auto model = rna::ScoringModel::unit();
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    const auto s1 = rna::random_sequence(5, rng);
    const auto s2 = rna::random_sequence(5, rng);
    BpmaxOptions opt;
    opt.variant = Variant::kBaseline;
    ASSERT_EQ(core::bpmax_score(s1, s2, model, opt),
              core::exhaustive_bpmax(s1, s2, model).score);
  }
}

TEST(BpmaxGroundTruth, HairpinModelMatchesExhaustive) {
  auto model = rna::ScoringModel::bpmax_default();
  model.set_min_hairpin(2);
  std::mt19937_64 rng(78);
  for (int trial = 0; trial < 8; ++trial) {
    const auto s1 = rna::random_sequence(6, rng);
    const auto s2 = rna::random_sequence(5, rng);
    BpmaxOptions opt;
    opt.variant = Variant::kBaseline;
    ASSERT_EQ(core::bpmax_score(s1, s2, model, opt),
              core::exhaustive_bpmax(s1, s2, model).score);
  }
}

// ------------------------------------------------- variant equivalence

struct VariantCase {
  Variant variant;
  int m, n;
  std::uint64_t seed;
};

class BpmaxVariantEquivalence : public ::testing::TestWithParam<VariantCase> {};

TEST_P(BpmaxVariantEquivalence, FullTableMatchesBaseline) {
  const auto p = GetParam();
  std::mt19937_64 rng(p.seed);
  const auto s1 = rna::random_sequence(static_cast<std::size_t>(p.m), rng);
  const auto s2 = rna::random_sequence(static_cast<std::size_t>(p.n), rng);
  const auto model = rna::ScoringModel::bpmax_default();

  BpmaxOptions base;
  base.variant = Variant::kBaseline;
  const auto ref = core::bpmax_solve(s1, s2, model, base);

  BpmaxOptions opt;
  opt.variant = p.variant;
  const auto got = core::bpmax_solve(s1, s2, model, opt);

  EXPECT_EQ(got.score, ref.score);
  EXPECT_TRUE(tables_equal(got.f, ref.f)) << core::variant_name(p.variant);
}

std::vector<VariantCase> variant_cases() {
  std::vector<VariantCase> cases;
  const std::vector<std::pair<int, int>> shapes = {
      {8, 13}, {16, 9}, {12, 12}, {1, 20}, {20, 1}, {2, 2}, {24, 6}};
  std::uint64_t seed = 100;
  for (const Variant v :
       {Variant::kSerialPermuted, Variant::kCoarse, Variant::kFine,
        Variant::kHybrid, Variant::kHybridTiled}) {
    for (const auto& [m, n] : shapes) {
      cases.push_back({v, m, n, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllVariants, BpmaxVariantEquivalence,
                         ::testing::ValuesIn(variant_cases()),
                         [](const auto& info) {
                           return std::string(core::variant_name(
                                      info.param.variant)) +
                                  "_m" + std::to_string(info.param.m) + "_n" +
                                  std::to_string(info.param.n);
                         });

// ------------------------------------------------------ tiling shapes

class BpmaxTileShapes : public ::testing::TestWithParam<core::TileShape3> {};

TEST_P(BpmaxTileShapes, TiledMatchesBaseline) {
  std::mt19937_64 rng(555);
  const auto s1 = rna::random_sequence(14, rng);
  const auto s2 = rna::random_sequence(11, rng);
  const auto model = rna::ScoringModel::bpmax_default();

  BpmaxOptions base;
  base.variant = Variant::kBaseline;
  const auto ref = core::bpmax_solve(s1, s2, model, base);

  BpmaxOptions opt;
  opt.variant = Variant::kHybridTiled;
  opt.tile = GetParam();
  const auto got = core::bpmax_solve(s1, s2, model, opt);
  EXPECT_EQ(got.score, ref.score);
  EXPECT_TRUE(tables_equal(got.f, ref.f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BpmaxTileShapes,
    ::testing::Values(core::TileShape3{1, 1, 1}, core::TileShape3{2, 3, 4},
                      core::TileShape3{4, 4, 0}, core::TileShape3{64, 64, 64},
                      core::TileShape3{0, 0, 0}, core::TileShape3{5, 1, 7},
                      core::TileShape3{32, 4, 0}, core::TileShape3{3, 16, 2}));

// --------------------------------------------- R1/R2 blocked finalization

class BpmaxR12Blocking : public ::testing::TestWithParam<int> {};

TEST_P(BpmaxR12Blocking, BlockedFinalizationMatchesBaseline) {
  std::mt19937_64 rng(777);
  const auto s1 = rna::random_sequence(10, rng);
  const auto s2 = rna::random_sequence(17, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  BpmaxOptions base;
  base.variant = Variant::kBaseline;
  const auto ref = core::bpmax_solve(s1, s2, model, base);
  BpmaxOptions opt;
  opt.variant = Variant::kHybridTiled;
  opt.r12_jblock = GetParam();
  const auto got = core::bpmax_solve(s1, s2, model, opt);
  EXPECT_EQ(got.score, ref.score);
  EXPECT_TRUE(tables_equal(got.f, ref.f)) << "jblock=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(BlockWidths, BpmaxR12Blocking,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 64, 1000));

// ----------------------------------------------------- layout variants

TEST(BpmaxLayout, PackedOption1MatchesBoundingBox) {
  std::mt19937_64 rng(808);
  const auto s1 = rna::random_sequence(10, rng);
  const auto s2 = rna::random_sequence(12, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto ref = core::bpmax_solve(s1, s2, model,
                                     {Variant::kBaseline, {}, 0});
  const auto packed =
      core::bpmax_solve_packed<core::InnerMapOption1>(s1, s2, model);
  for (int i1 = 0; i1 < ref.f.m(); ++i1) {
    for (int j1 = i1; j1 < ref.f.m(); ++j1) {
      for (int i2 = 0; i2 < ref.f.n(); ++i2) {
        for (int j2 = i2; j2 < ref.f.n(); ++j2) {
          ASSERT_EQ(packed.at(i1, j1, i2, j2), ref.f.at(i1, j1, i2, j2));
        }
      }
    }
  }
}

TEST(BpmaxLayout, PackedOption2MatchesBoundingBox) {
  std::mt19937_64 rng(809);
  const auto s1 = rna::random_sequence(9, rng);
  const auto s2 = rna::random_sequence(13, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto ref = core::bpmax_solve(s1, s2, model,
                                     {Variant::kBaseline, {}, 0});
  const auto packed =
      core::bpmax_solve_packed<core::InnerMapOption2>(s1, s2, model);
  for (int i1 = 0; i1 < ref.f.m(); ++i1) {
    for (int j1 = i1; j1 < ref.f.m(); ++j1) {
      for (int i2 = 0; i2 < ref.f.n(); ++i2) {
        for (int j2 = i2; j2 < ref.f.n(); ++j2) {
          ASSERT_EQ(packed.at(i1, j1, i2, j2), ref.f.at(i1, j1, i2, j2));
        }
      }
    }
  }
}

// -------------------------------------------------- structural properties

TEST(BpmaxProperties, ScoreIsNonNegative) {
  std::mt19937_64 rng(4242);
  const auto model = rna::ScoringModel::bpmax_default();
  for (int trial = 0; trial < 10; ++trial) {
    const auto s1 = rna::random_sequence(10, rng);
    const auto s2 = rna::random_sequence(10, rng);
    EXPECT_GE(core::bpmax_score(s1, s2, model, {Variant::kHybridTiled, {}, 0}),
              0.0f);
  }
}

TEST(BpmaxProperties, TableMonotoneUnderIntervalInclusion) {
  std::mt19937_64 rng(4243);
  const auto s1 = rna::random_sequence(9, rng);
  const auto s2 = rna::random_sequence(9, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto res =
      core::bpmax_solve(s1, s2, model, {Variant::kSerialPermuted, {}, 0});
  const auto& f = res.f;
  for (int i1 = 0; i1 < f.m(); ++i1) {
    for (int j1 = i1; j1 < f.m(); ++j1) {
      for (int i2 = 0; i2 < f.n(); ++i2) {
        for (int j2 = i2; j2 < f.n(); ++j2) {
          if (j1 + 1 < f.m()) {
            EXPECT_LE(f.at(i1, j1, i2, j2), f.at(i1, j1 + 1, i2, j2));
          }
          if (j2 + 1 < f.n()) {
            EXPECT_LE(f.at(i1, j1, i2, j2), f.at(i1, j1, i2, j2 + 1));
          }
        }
      }
    }
  }
}

TEST(BpmaxProperties, TableDominatesIndependentFolding) {
  std::mt19937_64 rng(4244);
  const auto s1 = rna::random_sequence(8, rng);
  const auto s2 = rna::random_sequence(8, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto res =
      core::bpmax_solve(s1, s2, model, {Variant::kHybrid, {}, 0});
  for (int i1 = 0; i1 < res.f.m(); ++i1) {
    for (int j1 = i1; j1 < res.f.m(); ++j1) {
      for (int i2 = 0; i2 < res.f.n(); ++i2) {
        for (int j2 = i2; j2 < res.f.n(); ++j2) {
          EXPECT_GE(res.f.at(i1, j1, i2, j2),
                    res.s1.at(i1, j1) + res.s2.at(i2, j2));
        }
      }
    }
  }
}

TEST(BpmaxProperties, ScoreMonotoneUnderExtension) {
  std::mt19937_64 rng(4245);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto s2 = rna::random_sequence(8, rng);
  auto bases = rna::random_sequence(6, rng).bases();
  float prev = core::bpmax_score(rna::Sequence(bases), s2, model,
                                 {Variant::kSerialPermuted, {}, 0});
  for (int grow = 0; grow < 4; ++grow) {
    bases.push_back(rna::Base::G);
    const float next = core::bpmax_score(rna::Sequence(bases), s2, model,
                                         {Variant::kSerialPermuted, {}, 0});
    EXPECT_GE(next, prev);
    prev = next;
  }
}

// ------------------------------------------------------------ plumbing

TEST(BpmaxApi, EmptyInputsCollapseToSingleStrand) {
  const auto model = rna::ScoringModel::bpmax_default();
  EXPECT_EQ(core::bpmax_score(seq(""), seq(""), model), 0.0f);
  EXPECT_EQ(core::bpmax_score(seq("GC"), seq(""), model), 3.0f);
  EXPECT_EQ(core::bpmax_score(seq(""), seq("GAUC"), model), 5.0f);
}

TEST(BpmaxApi, SingleBasePair) {
  const auto model = rna::ScoringModel::bpmax_default();
  EXPECT_EQ(core::bpmax_score(seq("G"), seq("C"), model), 3.0f);
  EXPECT_EQ(core::bpmax_score(seq("A"), seq("C"), model), 0.0f);
}

TEST(BpmaxApi, KnownInteraction) {
  // Strand 1 "GGG" vs strand 2 "CCC": three parallel intermolecular GC
  // pairs are valid (order-preserving), worth 9.
  const auto model = rna::ScoringModel::bpmax_default();
  EXPECT_EQ(core::bpmax_score(seq("GGG"), seq("CCC"), model), 9.0f);
}

TEST(BpmaxApi, OversubscribedThreadsStayCorrect) {
  // Parallel variants with more threads than cores (this may be a 1-core
  // box): exercises the OpenMP paths under maximal interleaving. The band
  // stage's work items are (triangle, row block) pairs, so the cases also
  // cover a last block shorter than ti2 (n % ti2 != 0), fewer items than
  // threads (M <= 3), the default tile, and one-row blocks (ti2 = 1).
  struct Case {
    int m, n, threads;
    core::TileShape3 tile;
  };
  const Case cases[] = {
      {10, 14, 4, {3, 2, 5}}, {10, 14, 1, {}},        {9, 37, 2, {}},
      {7, 45, 3, {}},         {8, 33, 5, {}},         {6, 20, 3, {1, 2, 0}},
      {1, 35, 3, {}},         {2, 19, 5, {}},         {3, 40, 2, {}},
      {2, 9, 3, {1, 4, 0}},   {3, 13, 5, {1, 1, 1}},  {3, 11, 5, {4, 3, 0}},
  };
  const auto model = rna::ScoringModel::bpmax_default();
  std::mt19937_64 rng(31337);
  for (const Case& c : cases) {
    const auto s1 = rna::random_sequence(static_cast<std::size_t>(c.m), rng);
    const auto s2 = rna::random_sequence(static_cast<std::size_t>(c.n), rng);
    const auto ref = core::bpmax_solve(s1, s2, model,
                                       {Variant::kBaseline, {}, 0});
    for (const Variant v : {Variant::kCoarse, Variant::kFine,
                            Variant::kHybrid, Variant::kHybridTiled}) {
      BpmaxOptions opt;
      opt.variant = v;
      opt.num_threads = c.threads;
      opt.tile = c.tile;
      const auto got = core::bpmax_solve(s1, s2, model, opt);
      const std::string where = std::string(core::variant_name(v)) + " " +
                                std::to_string(c.m) + "x" +
                                std::to_string(c.n) + " threads=" +
                                std::to_string(c.threads) +
                                " ti2=" + std::to_string(c.tile.ti2);
      EXPECT_EQ(got.score, ref.score) << where;
      EXPECT_TRUE(tables_equal(got.f, ref.f)) << where;
    }
  }
}

TEST(BpmaxApi, ThreadCountOptionRestoresRuntimeSetting) {
  const int before = omp_get_max_threads();
  BpmaxOptions opt;
  opt.variant = Variant::kHybrid;
  opt.num_threads = 2;
  std::mt19937_64 rng(9);
  core::bpmax_solve(rna::random_sequence(8, rng), rna::random_sequence(8, rng),
                    rna::ScoringModel::bpmax_default(), opt);
  EXPECT_EQ(omp_get_max_threads(), before);
}

TEST(BpmaxApi, VariantNamesAreStable) {
  EXPECT_STREQ(core::variant_name(Variant::kBaseline), "baseline");
  EXPECT_STREQ(core::variant_name(Variant::kHybridTiled), "hybrid_tiled");
  EXPECT_EQ(core::all_variants().size(), 6u);
}

TEST(BpmaxApi, ResultExposesTables) {
  const auto model = rna::ScoringModel::bpmax_default();
  const auto res = core::bpmax_solve(seq("GCAU"), seq("AUGC"), model);
  EXPECT_EQ(res.f.m(), 4);
  EXPECT_EQ(res.f.n(), 4);
  EXPECT_EQ(res.score, res.f.at(0, 3, 0, 3));
  EXPECT_EQ(res.s1.size(), 4);
  EXPECT_EQ(res.s2.size(), 4);
}

}  // namespace
