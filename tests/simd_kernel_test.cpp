/// Direct differential tests of the rri::core::simd kernel backends,
/// concentrating on the triangle-tail machinery the vector backends add:
/// sizes around the register-tile shapes (4 rows × 16 columns of 8-lane
/// ymm for AVX2, 4 rows × 32 columns of 16-lane zmm for AVX-512),
/// masked column tails at every offset, partial row blocks, and
/// degenerate strands through the full solver. Every test runs once per
/// supported vector backend against the scalar oracle; comparisons
/// demand bit equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/double_maxplus.hpp"
#include "rri/core/simd/maxplus_simd.hpp"

namespace {

using namespace rri;
using core::simd::Backend;

/// Restore auto-dispatch even when a test fails mid-way.
struct BackendGuard {
  ~BackendGuard() { core::simd::reset_backend(); }
};

/// Every supported non-scalar backend — the set under differential test.
std::vector<Backend> vector_backends() {
  std::vector<Backend> out;
  for (const Backend b : core::simd::supported_backends()) {
    if (b != Backend::kScalar) {
      out.push_back(b);
    }
  }
  return out;
}

/// Mantissa-exact pseudo-random block values in [0, 4): sums of a few
/// stay exact in fp32, so bit equality across backends is meaningful.
std::vector<float> random_block(int n, std::uint64_t seed, int tag) {
  std::vector<float> v(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      v[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
        static_cast<std::size_t>(j)] =
          core::dmp_input_value(seed, tag, tag, i, j);
    }
  }
  return v;
}

::testing::AssertionResult blocks_equal(const std::vector<float>& a,
                                        const std::vector<float>& b, int n) {
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const auto idx = static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                       static_cast<std::size_t>(j);
      if (a[idx] != b[idx]) {
        return ::testing::AssertionFailure()
               << "acc[" << i << "][" << j << "]: " << a[idx]
               << " != " << b[idx] << " (n=" << n << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Run `kernel` once on the scalar oracle and once on `backend`, on
/// identical inputs; return the two accumulator states for comparison.
template <typename Kernel>
std::pair<std::vector<float>, std::vector<float>> run_both(
    Backend backend, int n, std::uint64_t seed, Kernel&& kernel) {
  const std::vector<float> a = random_block(n, seed, 1);
  const std::vector<float> b = random_block(n, seed, 2);
  const std::vector<float> acc0 = random_block(n, seed, 3);

  BackendGuard guard;
  std::vector<float> got_scalar = acc0;
  EXPECT_TRUE(core::simd::set_backend(Backend::kScalar));
  kernel(got_scalar.data(), a.data(), b.data(), n);
  std::vector<float> got_vector = acc0;
  EXPECT_TRUE(core::simd::set_backend(backend));
  kernel(got_vector.data(), a.data(), b.data(), n);
  return {std::move(got_scalar), std::move(got_vector)};
}

TEST(SimdDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(core::simd::backend_available(Backend::kScalar));
  EXPECT_STREQ(core::simd::backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(core::simd::backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(core::simd::backend_name(Backend::kAvx512), "avx512");
}

TEST(SimdDispatch, SupportedBackendsInvariants) {
  const std::vector<Backend> backends = core::simd::supported_backends();
  // Scalar is always first; order is ascending preference with the best
  // backend last (what auto-resolution picks).
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), Backend::kScalar);
  for (const Backend b : backends) {
    EXPECT_TRUE(core::simd::backend_available(b))
        << core::simd::backend_name(b);
  }
  for (std::size_t i = 1; i < backends.size(); ++i) {
    EXPECT_LT(static_cast<int>(backends[i - 1]),
              static_cast<int>(backends[i]));
  }
}

TEST(SimdDispatch, KnownBackendListIsTableDriven) {
  // Built from the dispatch table, so every known backend name appears
  // (avx512 included) even on hosts/builds that cannot run it — the
  // RRI_SIMD error strings stay in sync with the table automatically.
  EXPECT_STREQ(core::simd::known_backend_list(), "scalar|avx2|avx512|auto");
}

TEST(SimdDispatch, SetAndResetBackend) {
  BackendGuard guard;
  ASSERT_TRUE(core::simd::set_backend(Backend::kScalar));
  EXPECT_EQ(core::simd::active_backend(), Backend::kScalar);
  for (const Backend vec : {Backend::kAvx2, Backend::kAvx512}) {
    ASSERT_TRUE(core::simd::set_backend(Backend::kScalar));
    const bool took = core::simd::set_backend(vec);
    EXPECT_EQ(took, core::simd::backend_available(vec))
        << core::simd::backend_name(vec);
    if (took) {
      EXPECT_EQ(core::simd::active_backend(), vec);
    } else {
      // A refused set_backend must not change the active backend.
      EXPECT_EQ(core::simd::active_backend(), Backend::kScalar);
    }
  }
  core::simd::reset_backend();
  // Re-resolves without crashing; the result depends on RRI_SIMD/CPUID.
  (void)core::simd::active_backend();
}

/// Save/restore RRI_SIMD around the env-parsing tests and drop the
/// cached resolution so the next test re-resolves cleanly.
struct EnvGuard {
  EnvGuard() {
    const char* old = std::getenv("RRI_SIMD");
    if (old != nullptr) {
      saved = old;
      had = true;
    }
  }
  ~EnvGuard() {
    if (had) {
      setenv("RRI_SIMD", saved.c_str(), 1);
    } else {
      unsetenv("RRI_SIMD");
    }
    core::simd::reset_backend();
  }
  std::string saved;
  bool had = false;
};

TEST(SimdDispatch, UnknownEnvValueWarnsWithFullBackendList) {
  EnvGuard guard;
  setenv("RRI_SIMD", "bogus-isa", 1);
  core::simd::reset_backend();
  ::testing::internal::CaptureStderr();
  const Backend resolved = core::simd::active_backend();
  const std::string err = ::testing::internal::GetCapturedStderr();
  // Falls back to auto = the best available backend, with a warning that
  // lists every accepted value from the dispatch table.
  EXPECT_EQ(resolved, core::simd::supported_backends().back());
  EXPECT_NE(err.find("unknown RRI_SIMD value"), std::string::npos) << err;
  EXPECT_NE(err.find(core::simd::known_backend_list()), std::string::npos)
      << err;
}

TEST(SimdDispatch, UnsupportedExplicitRequestWarnsAndDegrades) {
  // An explicit RRI_SIMD request for a backend this host/build cannot
  // run must degrade to the best available backend *with a warning* —
  // never silently, and never to a crash. Exercised for every known
  // backend the host lacks; on a host that supports everything there is
  // nothing to degrade.
  EnvGuard guard;
  bool exercised = false;
  for (const Backend b : {Backend::kAvx2, Backend::kAvx512}) {
    if (core::simd::backend_available(b)) {
      continue;
    }
    exercised = true;
    setenv("RRI_SIMD", core::simd::backend_name(b), 1);
    core::simd::reset_backend();
    ::testing::internal::CaptureStderr();
    const Backend resolved = core::simd::active_backend();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resolved, core::simd::supported_backends().back())
        << core::simd::backend_name(b);
    EXPECT_NE(err.find("not available"), std::string::npos) << err;
    EXPECT_NE(err.find(core::simd::backend_name(b)), std::string::npos)
        << err;
  }
  if (!exercised) {
    GTEST_SKIP()
        << "every known backend is available on this host; nothing degrades";
  }
}

TEST(SimdDispatch, SupportedExplicitRequestIsSilent) {
  EnvGuard guard;
  setenv("RRI_SIMD", "scalar", 1);
  core::simd::reset_backend();
  ::testing::internal::CaptureStderr();
  const Backend resolved = core::simd::active_backend();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(resolved, Backend::kScalar);
  EXPECT_EQ(err.find("RRI_SIMD"), std::string::npos) << err;
}

/// Sizes straddling every interesting boundary of both register tiles
/// (4 rows × 16 columns for AVX2, 4 rows × 32 for AVX-512) and their
/// vector widths: 1 .. 2*16+1 densely, then ±1 around every multiple of
/// 32 up to 4*32+1 so the zmm lane boundaries (32, 64, 96, 128) are hit
/// exactly, one short, and one over.
std::vector<int> edge_sizes() {
  std::vector<int> sizes;
  for (int n = 1; n <= 33; ++n) {
    sizes.push_back(n);
  }
  sizes.push_back(47);
  for (const int pivot : {64, 96, 128}) {
    sizes.push_back(pivot - 1);
    sizes.push_back(pivot);
    sizes.push_back(pivot + 1);
  }
  return sizes;
}

class SimdKernelEdgeSizes : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (vector_backends().empty()) {
      GTEST_SKIP() << "no vector backend available on this host/build";
    }
  }
};

TEST_P(SimdKernelEdgeSizes, R0RowsBitIdentical) {
  const int n = GetParam();
  for (const Backend backend : vector_backends()) {
    const auto [s, v] = run_both(backend, n, 101,
                                 [](float* acc, const float* a,
                                    const float* b, int nn) {
                                   core::simd::r0_rows(acc, a, b, nn, 0, nn);
                                 });
    EXPECT_TRUE(blocks_equal(s, v, n)) << core::simd::backend_name(backend);
  }
}

TEST_P(SimdKernelEdgeSizes, R0RegblockedBitIdentical) {
  const int n = GetParam();
  for (const Backend backend : vector_backends()) {
    const auto [s, v] = run_both(backend, n, 202,
                                 [](float* acc, const float* a,
                                    const float* b, int nn) {
                                   core::simd::r0_regblocked(acc, a, b, nn);
                                 });
    EXPECT_TRUE(blocks_equal(s, v, n)) << core::simd::backend_name(backend);
  }
}

TEST_P(SimdKernelEdgeSizes, R0TiledBitIdentical) {
  const int n = GetParam();
  for (const Backend backend : vector_backends()) {
    for (const core::TileShape3 tile :
         {core::TileShape3{4, 2, 0}, core::TileShape3{3, 3, 3},
          core::TileShape3{1, 1, 1}, core::TileShape3{0, 0, 0},
          core::TileShape3{5, 16, 7}}) {
      const int ti = tile.ti2 > 0 ? tile.ti2 : n;
      const int n_tiles = (n + ti - 1) / ti;
      const auto [s, v] =
          run_both(backend, n, 303, [&](float* acc, const float* a,
                                        const float* b, int nn) {
            core::simd::r0_tiled(acc, a, b, nn, tile, 0, n_tiles);
          });
      EXPECT_TRUE(blocks_equal(s, v, n))
          << core::simd::backend_name(backend) << " tile " << tile.ti2 << "x"
          << tile.tk2 << "x" << tile.tj2;
    }
  }
}

TEST_P(SimdKernelEdgeSizes, MaxplusRowsBitIdentical) {
  const int n = GetParam();
  for (const Backend backend : vector_backends()) {
    const auto [s, v] = run_both(
        backend, n, 404, [](float* acc, const float* a, const float* b,
                            int nn) {
          core::simd::maxplus_rows(acc, a, b, 1.25f, 0.75f, nn, 0, nn);
        });
    EXPECT_TRUE(blocks_equal(s, v, n)) << core::simd::backend_name(backend);
  }
}

TEST_P(SimdKernelEdgeSizes, MaxplusTiledBitIdentical) {
  const int n = GetParam();
  const core::TileShape3 tile{4, 4, 0};
  const int n_tiles = (n + 3) / 4;
  for (const Backend backend : vector_backends()) {
    const auto [s, v] = run_both(
        backend, n, 505, [&](float* acc, const float* a, const float* b,
                             int nn) {
          core::simd::maxplus_tiled(acc, a, b, 0.5f, 2.0f, nn, tile, 0,
                                    n_tiles);
        });
    EXPECT_TRUE(blocks_equal(s, v, n)) << core::simd::backend_name(backend);
  }
}

INSTANTIATE_TEST_SUITE_P(EdgeSizes, SimdKernelEdgeSizes,
                         ::testing::ValuesIn(edge_sizes()));

/// Masked-tail fuzz: partial row ranges at every offset, so the vector
/// backends hit their leftover-row streaming paths and every tail width
/// below their lane counts on both ends of the column windows.
TEST(SimdKernelFuzz, PartialRowRanges) {
  if (vector_backends().empty()) {
    GTEST_SKIP() << "no vector backend available on this host/build";
  }
  for (const Backend backend : vector_backends()) {
    for (const int n : {11, 19, 24, 37}) {
      for (int row_begin = 0; row_begin < n; row_begin += 3) {
        for (const int span : {1, 2, 3, 4, 5, 9}) {
          const int row_end = std::min(row_begin + span, n);
          const auto [s, v] = run_both(
              backend, n, 6000u + static_cast<unsigned>(n * 100 + row_begin),
              [&](float* acc, const float* a, const float* b, int nn) {
                core::simd::maxplus_rows(acc, a, b, 0.25f, 1.5f, nn,
                                         row_begin, row_end);
              });
          ASSERT_TRUE(blocks_equal(s, v, n))
              << core::simd::backend_name(backend) << " n=" << n << " rows ["
              << row_begin << "," << row_end << ")";
        }
      }
    }
  }
}

/// Seeded masked-tail fuzz: random (row_begin, row_end, n) triples drawn
/// from a size range wide enough to cover both register tiles, multiple
/// full zmm columns, and every tail width — the cases most likely to
/// expose a wrong __mmask16 or a miscounted leftover row. The seed is
/// printed in the failure message so any counterexample replays exactly.
TEST(SimdKernelFuzz, RandomRowRangeTriples) {
  if (vector_backends().empty()) {
    GTEST_SKIP() << "no vector backend available on this host/build";
  }
  constexpr std::uint64_t kSeed = 0xb9a7c0150dd5ULL;
  constexpr int kTriples = 60;
  for (const Backend backend : vector_backends()) {
    std::mt19937_64 rng(kSeed);
    std::uniform_int_distribution<int> size_dist(1, 140);
    for (int t = 0; t < kTriples; ++t) {
      const int n = size_dist(rng);
      std::uniform_int_distribution<int> row_dist(0, n);
      int row_begin = row_dist(rng);
      int row_end = row_dist(rng);
      if (row_begin > row_end) {
        std::swap(row_begin, row_end);
      }
      const auto seed = kSeed + static_cast<std::uint64_t>(t);
      const auto [sr, vr] = run_both(
          backend, n, seed,
          [&](float* acc, const float* a, const float* b, int nn) {
            core::simd::r0_rows(acc, a, b, nn, row_begin, row_end);
          });
      ASSERT_TRUE(blocks_equal(sr, vr, n))
          << core::simd::backend_name(backend) << " r0_rows triple #" << t
          << ": n=" << n << " rows [" << row_begin << "," << row_end
          << ") seed=" << seed;
      const auto [sm, vm] = run_both(
          backend, n, seed ^ 0x5555u,
          [&](float* acc, const float* a, const float* b, int nn) {
            core::simd::maxplus_rows(acc, a, b, 0.75f, 1.25f, nn, row_begin,
                                     row_end);
          });
      ASSERT_TRUE(blocks_equal(sm, vm, n))
          << core::simd::backend_name(backend) << " maxplus_rows triple #"
          << t << ": n=" << n << " rows [" << row_begin << "," << row_end
          << ") seed=" << (seed ^ 0x5555u);
    }
  }
}

/// Tile-range fuzz: single tile indices (the per-item call pattern of the
/// hybrid_tiled band stage) instead of whole-range sweeps.
TEST(SimdKernelFuzz, SingleTileCalls) {
  if (vector_backends().empty()) {
    GTEST_SKIP() << "no vector backend available on this host/build";
  }
  const int n = 29;
  const core::TileShape3 tile{3, 5, 11};
  const int n_tiles = (n + 2) / 3;
  for (const Backend backend : vector_backends()) {
    for (int it = 0; it < n_tiles; ++it) {
      const auto [s, v] = run_both(
          backend, n, 7000u + static_cast<unsigned>(it),
          [&](float* acc, const float* a, const float* b, int nn) {
            core::simd::maxplus_tiled(acc, a, b, 1.0f, 3.0f, nn, tile, it,
                                      it + 1);
          });
      ASSERT_TRUE(blocks_equal(s, v, n))
          << core::simd::backend_name(backend) << " tile index " << it;
    }
  }
}

/// Degenerate strands through the full solver under every backend.
TEST(SimdDegenerate, TinyAndUniformStrands) {
  if (vector_backends().empty()) {
    GTEST_SKIP() << "no vector backend available on this host/build";
  }
  const rna::ScoringModel model = rna::ScoringModel::bpmax_default();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", ""},
      {"", "GCAU"},
      {"GCAU", ""},
      {"A", "U"},
      {"G", "C"},
      {"A", "GGGGGGGG"},
      {"AAAAAAAA", "AAAAAAAA"},       // no admissible pair at all
      {"GGGGGGGGGGGGGGGGG", "CCCCCCCCCCCCCCCCC"},  // all-same, 17 = 2*8+1
  };
  BackendGuard guard;
  for (const auto& [t1, t2] : cases) {
    const rna::Sequence s1 = rna::Sequence::from_string(t1);
    const rna::Sequence s2 = rna::Sequence::from_string(t2);
    core::BpmaxOptions options;
    ASSERT_TRUE(core::simd::set_backend(Backend::kScalar));
    const core::BpmaxResult ref = core::bpmax_solve(s1, s2, model, options);
    for (const Backend backend : vector_backends()) {
      ASSERT_TRUE(core::simd::set_backend(backend));
      const core::BpmaxResult got = core::bpmax_solve(s1, s2, model, options);
      EXPECT_EQ(ref.score, got.score)
          << core::simd::backend_name(backend) << " '" << t1 << "' x '" << t2
          << "'";
    }
  }
}

}  // namespace
