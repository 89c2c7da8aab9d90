#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bppart.hpp"
#include "rri/core/ftable.hpp"
#include "rri/core/packed_ftable.hpp"
#include "rri/mpisim/dist_bpmax.hpp"
#include "rri/rna/random.hpp"

namespace {

using namespace rri::core;

TEST(FTable, AllocatesBoundingBox) {
  const FTable f(5, 7);
  EXPECT_EQ(f.m(), 5);
  EXPECT_EQ(f.n(), 7);
  EXPECT_EQ(f.allocated(), 5u * 6u / 2u * 7u * 7u);
}

TEST(FTable, InitializedToMinusInfinity) {
  const FTable f(3, 3);
  for (int i1 = 0; i1 < 3; ++i1) {
    for (int j1 = i1; j1 < 3; ++j1) {
      for (int i2 = 0; i2 < 3; ++i2) {
        for (int j2 = i2; j2 < 3; ++j2) {
          EXPECT_TRUE(std::isinf(f.at(i1, j1, i2, j2)));
          EXPECT_LT(f.at(i1, j1, i2, j2), 0.0f);
        }
      }
    }
  }
}

TEST(FTable, WriteReadRoundTrip) {
  FTable f(4, 3);
  float v = 0.0f;
  for (int i1 = 0; i1 < 4; ++i1) {
    for (int j1 = i1; j1 < 4; ++j1) {
      for (int i2 = 0; i2 < 3; ++i2) {
        for (int j2 = i2; j2 < 3; ++j2) {
          f.at(i1, j1, i2, j2) = v;
          v += 1.0f;
        }
      }
    }
  }
  v = 0.0f;
  for (int i1 = 0; i1 < 4; ++i1) {
    for (int j1 = i1; j1 < 4; ++j1) {
      for (int i2 = 0; i2 < 3; ++i2) {
        for (int j2 = i2; j2 < 3; ++j2) {
          EXPECT_EQ(f.at(i1, j1, i2, j2), v);
          v += 1.0f;
        }
      }
    }
  }
}

TEST(FTable, BlockAndRowAliasAt) {
  FTable f(3, 4);
  f.at(1, 2, 0, 3) = 42.0f;
  EXPECT_EQ(f.block(1, 2)[0 * 4 + 3], 42.0f);
  EXPECT_EQ(f.row(1, 2, 0)[3], 42.0f);
  f.row(0, 0, 2)[2] = 7.0f;
  EXPECT_EQ(f.at(0, 0, 2, 2), 7.0f);
}

TEST(FTable, BlocksAreRowMajorContiguous) {
  FTable f(2, 3);
  // Row i2 of a block is unit-stride in j2.
  float* r = f.row(0, 1, 1);
  r[1] = 1.0f;
  r[2] = 2.0f;
  EXPECT_EQ(f.at(0, 1, 1, 1), 1.0f);
  EXPECT_EQ(f.at(0, 1, 1, 2), 2.0f);
}

TEST(FTable, TableBytesIsAllocatedTimesElementSize) {
  for (const int m : {1, 2, 3, 7, 16}) {
    for (const int n : {1, 2, 5, 9, 31}) {
      const auto um = static_cast<std::size_t>(m);
      const auto un = static_cast<std::size_t>(n);
      EXPECT_EQ(table_bytes(um, un, rri::semiring::Algebra::kTropical),
                static_cast<double>(FTable(m, n).allocated() * sizeof(float)))
          << m << " x " << n;
      EXPECT_EQ(table_bytes(um, un, rri::semiring::Algebra::kLogSumExp),
                static_cast<double>(ZTable(m, n).allocated() *
                                    sizeof(double)))
          << m << " x " << n;
    }
  }
}

// ------------------------------------------- lower-triangle invariant

/// Cells with j2 < i2 that no longer hold -inf. ftable.hpp promises no
/// fill writes them.
template <typename T>
int lower_triangle_violations(const BasicFTable<T>& t) {
  int bad = 0;
  for (int i1 = 0; i1 < t.m(); ++i1) {
    for (int j1 = i1; j1 < t.m(); ++j1) {
      for (int i2 = 0; i2 < t.n(); ++i2) {
        for (int j2 = 0; j2 < i2; ++j2) {
          const T v = t.at(i1, j1, i2, j2);
          if (!(std::isinf(v) && v < 0)) {
            ++bad;
          }
        }
      }
    }
  }
  return bad;
}

/// A few small random pairs, including a length-1 strand on each side.
std::vector<std::pair<rri::rna::Sequence, rri::rna::Sequence>>
invariant_pairs() {
  std::vector<std::pair<rri::rna::Sequence, rri::rna::Sequence>> pairs;
  std::uint64_t seed = 2711;
  for (const auto& [m, n] :
       std::vector<std::pair<int, int>>{{9, 23}, {12, 5}, {1, 7}, {6, 1}}) {
    pairs.emplace_back(rri::rna::random_sequence(m, seed),
                       rri::rna::random_sequence(n, seed + 1));
    seed += 2;
  }
  return pairs;
}

TEST(FTableInvariant, NoBpmaxVariantWritesTheLowerTriangle) {
  const auto model = rri::rna::ScoringModel::bpmax_default();
  for (const auto& [s1, s2] : invariant_pairs()) {
    for (const Variant v : all_variants()) {
      BpmaxOptions options;
      options.variant = v;
      options.num_threads = 2;
      const BpmaxResult r = bpmax_solve(s1, s2, model, options);
      EXPECT_EQ(lower_triangle_violations(r.f), 0)
          << variant_name(v) << " " << s1.size() << " x " << s2.size();
    }
  }
}

TEST(FTableInvariant, NoBppartVariantWritesTheLowerTriangle) {
  const auto model = rri::rna::ScoringModel::bpmax_default();
  for (const auto& [s1, s2] : invariant_pairs()) {
    for (const BppartVariant v : all_bppart_variants()) {
      BppartOptions options;
      options.variant = v;
      options.num_threads = 2;
      const BppartResult r = bppart_solve(s1, s2, model, options);
      EXPECT_EQ(lower_triangle_violations(r.z), 0)
          << bppart_variant_name(v) << " " << s1.size() << " x "
          << s2.size();
    }
  }
}

TEST(FTableInvariant, DistributedBpmaxDoesNotWriteTheLowerTriangle) {
  const auto model = rri::rna::ScoringModel::bpmax_default();
  for (const auto& [s1, s2] : invariant_pairs()) {
    const auto r = rri::mpisim::distributed_bpmax(s1, s2, model, 2);
    EXPECT_EQ(lower_triangle_violations(r.table), 0)
        << s1.size() << " x " << s2.size();
  }
}

// --------------------------------------------------------------- packed

template <typename T>
class PackedFTableTyped : public ::testing::Test {};

using InnerMaps = ::testing::Types<InnerMapOption1, InnerMapOption2>;
TYPED_TEST_SUITE(PackedFTableTyped, InnerMaps);

TYPED_TEST(PackedFTableTyped, AllocatesHalfTheOuterBox) {
  const PackedFTable<TypeParam> f(6, 5);
  EXPECT_EQ(f.allocated(), 6u * 7u / 2u * 5u * 5u);
  // The same packed outer triangle as FTable.
  EXPECT_EQ(f.allocated(), FTable(6, 5).allocated());
}

TYPED_TEST(PackedFTableTyped, TriIndexIsBijective) {
  const PackedFTable<TypeParam> f(7, 2);
  std::set<std::size_t> seen;
  for (int i1 = 0; i1 < 7; ++i1) {
    for (int j1 = i1; j1 < 7; ++j1) {
      const auto idx = f.tri_index(i1, j1);
      EXPECT_LT(idx, 7u * 8u / 2u);
      EXPECT_TRUE(seen.insert(idx).second)
          << "duplicate tri index for (" << i1 << "," << j1 << ")";
    }
  }
  EXPECT_EQ(seen.size(), 7u * 8u / 2u);
}

TYPED_TEST(PackedFTableTyped, WriteReadRoundTripAllCells) {
  PackedFTable<TypeParam> f(4, 4);
  float v = 1.0f;
  for (int i1 = 0; i1 < 4; ++i1) {
    for (int j1 = i1; j1 < 4; ++j1) {
      for (int i2 = 0; i2 < 4; ++i2) {
        for (int j2 = i2; j2 < 4; ++j2) {
          f.at(i1, j1, i2, j2) = v;
          v += 1.0f;
        }
      }
    }
  }
  v = 1.0f;
  for (int i1 = 0; i1 < 4; ++i1) {
    for (int j1 = i1; j1 < 4; ++j1) {
      for (int i2 = 0; i2 < 4; ++i2) {
        for (int j2 = i2; j2 < 4; ++j2) {
          ASSERT_EQ(f.at(i1, j1, i2, j2), v)
              << i1 << " " << j1 << " " << i2 << " " << j2;
          v += 1.0f;
        }
      }
    }
  }
}

TYPED_TEST(PackedFTableTyped, RowPointerCoherentWithAt) {
  PackedFTable<TypeParam> f(3, 5);
  f.at(0, 2, 1, 3) = 9.0f;
  EXPECT_EQ(f.row(0, 2, 1)[TypeParam::column(1, 3)], 9.0f);
}

TEST(PackedFTable, InnerMapColumns) {
  EXPECT_EQ(InnerMapOption1::column(2, 5), 5u);
  EXPECT_EQ(InnerMapOption2::column(2, 5), 3u);
  EXPECT_EQ(InnerMapOption2::column(4, 4), 0u);
}

TEST(PackedFTable, DistinctCellsDistinctStorage) {
  // Writing every valid cell a unique value and reading back (done above)
  // plus spot-checking that (i2, j2) and (i2, j2') never collide under
  // option 2 within a row.
  PackedFTable<InnerMapOption2> f(2, 6);
  for (int j2 = 2; j2 < 6; ++j2) {
    f.at(0, 1, 2, j2) = static_cast<float>(j2);
  }
  for (int j2 = 2; j2 < 6; ++j2) {
    EXPECT_EQ(f.at(0, 1, 2, j2), static_cast<float>(j2));
  }
}

}  // namespace
