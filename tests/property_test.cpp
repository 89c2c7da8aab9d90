/// Property-based differential harness for the BPMax solver: seeded
/// random sequence pairs over a sweep of (M, N, scoring model) shapes,
/// asserting that every variant × SIMD-backend combination produces a
/// bit-identical F-table, with the exhaustive structure enumerator as an
/// independent oracle on tiny instances.
///
/// Environment knobs (reproduce and budget):
///   RRI_PROPERTY_SEED   base seed (default 20260805); every failure
///                       message prints the full reproducer
///   RRI_PROPERTY_ITERS  iterations (default 25; CI's sanitizer job
///                       raises this — see .github/workflows/ci.yml)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bppart.hpp"
#include "rri/core/exhaustive.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/core/windowed.hpp"
#include "rri/rna/random.hpp"

namespace {

using namespace rri;
using core::simd::Backend;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

struct BackendGuard {
  ~BackendGuard() { core::simd::reset_backend(); }
};

/// Every backend compiled in and supported by this host, scalar first.
/// Built from the dispatch layer's own table — a new backend is swept
/// by every test below the day backend_available() says yes, with no
/// test edits. Prints one note per process so CI logs show exactly
/// which backends a run actually covered (a scalar-only sweep must
/// never masquerade as a full one).
std::vector<Backend> swept_backends() {
  static const std::vector<Backend> backends = [] {
    std::vector<Backend> b = core::simd::supported_backends();
    std::string names;
    for (const Backend backend : b) {
      names += names.empty() ? "" : ", ";
      names += core::simd::backend_name(backend);
    }
    std::printf("note: property sweep covers backends: %s\n", names.c_str());
    return b;
  }();
  return backends;
}

/// One generated problem instance plus everything needed to replay it.
struct Instance {
  std::uint64_t seed = 0;
  int iter = 0;
  rna::Sequence s1;
  rna::Sequence s2;
  rna::ScoringModel model = rna::ScoringModel::bpmax_default();
  const char* model_name = "default";

  std::string reproducer() const {
    return "RRI_PROPERTY_SEED=" + std::to_string(seed) +
           " iter=" + std::to_string(iter) + " m=" +
           std::to_string(s1.size()) + " n=" + std::to_string(s2.size()) +
           " s1='" + s1.to_string() + "' s2='" + s2.to_string() +
           "' model=" + model_name;
  }
};

Instance make_instance(std::uint64_t base_seed, int iter) {
  Instance inst;
  inst.seed = base_seed;
  inst.iter = iter;
  std::mt19937_64 rng(base_seed + 0x9e3779b97f4a7c15ULL *
                                      static_cast<std::uint64_t>(iter + 1));
  // Small shapes dominate (they exercise every tail path and keep the
  // sweep fast); occasionally jump past two zmm widths so the vector
  // compilations' full-width loop bodies run too.
  std::uniform_int_distribution<int> small(1, 14);
  std::uniform_int_distribution<int> large(17, 40);
  std::uniform_int_distribution<int> pick(0, 9);
  const int m = pick(rng) == 0 ? large(rng) / 3 + 1 : small(rng);
  const int n = pick(rng) == 0 ? large(rng) : small(rng);
  inst.s1 = rna::random_sequence(static_cast<std::size_t>(m), rng);
  inst.s2 = rna::random_sequence(static_cast<std::size_t>(n), rng);
  switch (pick(rng) % 3) {
    case 0:
      inst.model = rna::ScoringModel::unit();
      inst.model_name = "unit";
      break;
    case 1:
      inst.model.set_min_hairpin(2);
      inst.model_name = "default+min_hairpin2";
      break;
    default:
      break;
  }
  return inst;
}

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

/// The full differential sweep: reference = baseline variant on the
/// scalar backend; every other (variant, backend) must match bitwise.
TEST(PropertyDifferential, AllVariantsAllBackendsBitIdentical) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  const int iters =
      static_cast<int>(env_u64("RRI_PROPERTY_ITERS", 25ULL));
  BackendGuard guard;

  const std::vector<Backend> backends = swept_backends();

  for (int iter = 0; iter < iters; ++iter) {
    const Instance inst = make_instance(seed, iter);
    ASSERT_TRUE(core::simd::set_backend(Backend::kScalar));
    core::BpmaxOptions ref_options;
    ref_options.variant = core::Variant::kBaseline;
    const core::BpmaxResult ref =
        core::bpmax_solve(inst.s1, inst.s2, inst.model, ref_options);

    for (const Backend backend : backends) {
      ASSERT_TRUE(core::simd::set_backend(backend));
      for (const core::Variant v : core::all_variants()) {
        core::BpmaxOptions options;
        options.variant = v;
        // Vary the tile shape with the iteration so TileShape3 edge
        // combinations get coverage too.
        options.tile = core::TileShape3{1 + iter % 5, 1 + iter % 3,
                                        (iter % 4 == 0) ? 0 : 1 + iter % 7};
        const core::BpmaxResult got =
            core::bpmax_solve(inst.s1, inst.s2, inst.model, options);
        ASSERT_EQ(ref.score, got.score)
            << core::variant_name(v) << " on "
            << core::simd::backend_name(backend) << "\n"
            << inst.reproducer();
        ASSERT_TRUE(tables_equal(ref.f, got.f))
            << core::variant_name(v) << " on "
            << core::simd::backend_name(backend) << "\n"
            << inst.reproducer();
      }
    }
  }
}

/// Every compiled-and-supported backend **pair**, enumerated explicitly:
/// for each variant, solve the same instance once per backend and
/// compare every pair of F-tables directly, with the failure message
/// naming both backends. Mathematically the sweep above already implies
/// this (everything matches the scalar reference), but the pairwise form
/// pins the contract the ISSUE states — tropical results must stay
/// bit-identical *no matter which kernel ran* — and keeps gating any
/// future backend (the pair list grows by itself via
/// supported_backends()).
TEST(PropertyDifferential, AllBackendPairsBitIdentical) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  const int iters =
      std::max(4, static_cast<int>(env_u64("RRI_PROPERTY_ITERS", 25ULL)) / 2);
  BackendGuard guard;

  const std::vector<Backend> backends = swept_backends();
  if (backends.size() < 2) {
    GTEST_SKIP() << "only one backend supported; no pairs to compare";
  }

  for (int iter = 0; iter < iters; ++iter) {
    const Instance inst = make_instance(seed, iter);
    for (const core::Variant v : core::all_variants()) {
      core::BpmaxOptions options;
      options.variant = v;
      options.tile = core::TileShape3{1 + iter % 5, 1 + iter % 3,
                                      (iter % 4 == 0) ? 0 : 1 + iter % 7};
      std::vector<core::BpmaxResult> per_backend;
      per_backend.reserve(backends.size());
      for (const Backend backend : backends) {
        ASSERT_TRUE(core::simd::set_backend(backend));
        per_backend.push_back(
            core::bpmax_solve(inst.s1, inst.s2, inst.model, options));
      }
      for (std::size_t i = 0; i < backends.size(); ++i) {
        for (std::size_t j = i + 1; j < backends.size(); ++j) {
          ASSERT_EQ(per_backend[i].score, per_backend[j].score)
              << core::variant_name(v) << ": "
              << core::simd::backend_name(backends[i]) << " vs "
              << core::simd::backend_name(backends[j]) << "\n"
              << inst.reproducer();
          ASSERT_TRUE(tables_equal(per_backend[i].f, per_backend[j].f))
              << core::variant_name(v) << ": "
              << core::simd::backend_name(backends[i]) << " vs "
              << core::simd::backend_name(backends[j]) << "\n"
              << inst.reproducer();
        }
      }
    }
  }
}

/// Tiny instances against the independent exhaustive enumerator (not a
/// re-derivation of the recurrence) on every backend.
TEST(PropertyDifferential, TinyInstancesMatchExhaustiveOracle) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  const int iters =
      std::max(4, static_cast<int>(env_u64("RRI_PROPERTY_ITERS", 25ULL)) / 2);
  BackendGuard guard;

  const std::vector<Backend> backends = swept_backends();

  for (int iter = 0; iter < iters; ++iter) {
    std::mt19937_64 rng(seed * 31 + static_cast<std::uint64_t>(iter));
    std::uniform_int_distribution<int> len(1, 5);
    const rna::Sequence s1 =
        rna::random_sequence(static_cast<std::size_t>(len(rng)), rng);
    const rna::Sequence s2 =
        rna::random_sequence(static_cast<std::size_t>(len(rng)), rng);
    const rna::ScoringModel model = rna::ScoringModel::bpmax_default();
    const core::ExhaustiveResult truth = core::exhaustive_bpmax(s1, s2, model);
    for (const Backend backend : backends) {
      ASSERT_TRUE(core::simd::set_backend(backend));
      for (const core::Variant v : core::all_variants()) {
        core::BpmaxOptions options;
        options.variant = v;
        const float got = core::bpmax_score(s1, s2, model, options);
        ASSERT_EQ(truth.score, got)
            << core::variant_name(v) << " on "
            << core::simd::backend_name(backend) << " RRI_PROPERTY_SEED="
            << seed << " iter=" << iter << " s1='" << s1.to_string()
            << "' s2='" << s2.to_string() << "'";
      }
    }
  }
}

// ------------------------------------------------------ bppart oracle

/// |a - b| <= tol * max(1, |a|, |b|): relative, with an absolute floor
/// so log Z near zero still compares sanely.
::testing::AssertionResult near_rel(double a, double b, double tol) {
  const double scale =
      std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
  if (std::fabs(a - b) <= tol * scale) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (rel err "
         << std::fabs(a - b) / scale << ")";
}

/// The partition-function engine against the brute-force enumerator on
/// random tiny instances: log Z and every pairing probability within
/// 1e-9 relative, probabilities in [0, 1], per-position marginals <= 1.
TEST(PropertyBppart, TinyInstancesMatchExhaustiveOracle) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  const int iters =
      std::max(4, static_cast<int>(env_u64("RRI_PROPERTY_ITERS", 25ULL)) / 2);

  for (int iter = 0; iter < iters; ++iter) {
    std::mt19937_64 rng(seed * 131 + static_cast<std::uint64_t>(iter));
    std::uniform_int_distribution<int> len1(1, 7);
    std::uniform_int_distribution<int> len2(1, 6);
    std::uniform_int_distribution<int> pick(0, 2);
    const rna::Sequence s1 =
        rna::random_sequence(static_cast<std::size_t>(len1(rng)), rng);
    const rna::Sequence s2 =
        rna::random_sequence(static_cast<std::size_t>(len2(rng)), rng);
    rna::ScoringModel model = pick(rng) == 0 ? rna::ScoringModel::unit()
                                             : rna::ScoringModel::bpmax_default();
    if (pick(rng) == 1) {
      model.set_min_hairpin(2);
    }
    const double temperature = 0.5 + 0.5 * static_cast<double>(pick(rng));
    const std::string repro =
        "RRI_PROPERTY_SEED=" + std::to_string(seed) + " iter=" +
        std::to_string(iter) + " s1='" + s1.to_string() + "' s2='" +
        s2.to_string() + "' T=" + std::to_string(temperature);

    const core::ExhaustivePartition truth =
        core::exhaustive_bppart(s1, s2, model, temperature);
    core::BppartOptions opts;
    opts.temperature = temperature;
    opts.variant = core::BppartVariant::kSerial;
    const core::BppartResult got = core::bppart_solve(s1, s2, model, opts);
    ASSERT_TRUE(near_rel(truth.log_z, got.log_z, 1e-9)) << repro;

    const std::vector<double> prob = core::bppart_pair_probabilities(got);
    const int m = static_cast<int>(s1.size());
    const int n = static_cast<int>(s2.size());
    ASSERT_EQ(prob.size(), truth.pair_prob.size()) << repro;
    for (int a = 0; a < m; ++a) {
      double marginal = 0.0;
      for (int b = 0; b < n; ++b) {
        const std::size_t idx = static_cast<std::size_t>(a) *
                                    static_cast<std::size_t>(n) +
                                static_cast<std::size_t>(b);
        ASSERT_GE(prob[idx], 0.0) << repro;
        ASSERT_LE(prob[idx], 1.0) << repro;
        ASSERT_TRUE(near_rel(truth.pair_prob[idx], prob[idx], 1e-9))
            << repro << " pair (" << a << "," << b << ")";
        marginal += prob[idx];
      }
      // Position a pairs with at most one partner per structure, so its
      // inter-pair marginals cannot sum past 1 (tolerance for rounding).
      ASSERT_LE(marginal, 1.0 + 1e-9) << repro << " a=" << a;
    }
  }
}

/// A pinned 10x8 instance — the largest shape the enumerator can cover —
/// nailed at a fixed temperature so any drift in either formulation
/// (engine or oracle) shows up in CI, not just under lucky seeds.
TEST(PropertyBppart, PinnedTenByEightMatchesOracle) {
  const rna::Sequence s1 = rna::Sequence::from_string("GGGGGAAAAA");
  const rna::Sequence s2 = rna::Sequence::from_string("CCCCCAAA");
  const rna::ScoringModel model = rna::ScoringModel::bpmax_default();
  const core::ExhaustivePartition truth =
      core::exhaustive_bppart(s1, s2, model, 1.0);
  ASSERT_GT(truth.structures_seen, 0u);
  core::BppartOptions opts;
  const core::BppartResult got = core::bppart_solve(s1, s2, model, opts);
  ASSERT_TRUE(near_rel(truth.log_z, got.log_z, 1e-9));
  const std::vector<double> prob = core::bppart_pair_probabilities(got);
  for (std::size_t i = 0; i < prob.size(); ++i) {
    ASSERT_TRUE(near_rel(truth.pair_prob[i], prob[i], 1e-9)) << "i=" << i;
  }
}

/// All BppartVariant schedules are bit-identical (the per-cell reduction
/// order is pinned), across tile shapes and thread counts.
TEST(PropertyBppart, AllVariantsBitIdentical) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  const int iters =
      std::max(4, static_cast<int>(env_u64("RRI_PROPERTY_ITERS", 25ULL)) / 3);
  for (int iter = 0; iter < iters; ++iter) {
    std::mt19937_64 rng(seed * 977 + static_cast<std::uint64_t>(iter));
    std::uniform_int_distribution<int> len(1, 12);
    const rna::Sequence s1 =
        rna::random_sequence(static_cast<std::size_t>(len(rng)), rng);
    const rna::Sequence s2 =
        rna::random_sequence(static_cast<std::size_t>(len(rng)), rng);
    const rna::ScoringModel model = rna::ScoringModel::bpmax_default();

    core::BppartOptions ref_opts;
    ref_opts.variant = core::BppartVariant::kSerial;
    const core::BppartResult ref =
        core::bppart_solve(s1, s2, model, ref_opts);

    for (const core::BppartVariant v : core::all_bppart_variants()) {
      core::BppartOptions opts;
      opts.variant = v;
      opts.num_threads = 1 + iter % 3;
      opts.tile = core::TileShape3{1 + iter % 5, 1 + iter % 3,
                                   (iter % 4 == 0) ? 0 : 1 + iter % 7};
      const core::BppartResult got =
          core::bppart_solve(s1, s2, model, opts);
      ASSERT_EQ(ref.log_z, got.log_z)
          << core::bppart_variant_name(v) << " RRI_PROPERTY_SEED=" << seed
          << " iter=" << iter << " s1='" << s1.to_string() << "' s2='"
          << s2.to_string() << "'";
      for (int i1 = 0; i1 < ref.z.m(); ++i1) {
        for (int j1 = i1; j1 < ref.z.m(); ++j1) {
          for (int i2 = 0; i2 < ref.z.n(); ++i2) {
            for (int j2 = i2; j2 < ref.z.n(); ++j2) {
              ASSERT_EQ(ref.z.at(i1, j1, i2, j2), got.z.at(i1, j1, i2, j2))
                  << core::bppart_variant_name(v) << " Z(" << i1 << ","
                  << j1 << "," << i2 << "," << j2 << ") iter=" << iter;
            }
          }
        }
      }
    }
  }
}

/// Windowed scan equivalence under forced backends: each window's score
/// equals a direct solve of the window subsequence.
TEST(PropertyDifferential, ScanWindowsMatchDirectSolves) {
  const std::uint64_t seed = env_u64("RRI_PROPERTY_SEED", 20260805ULL);
  BackendGuard guard;
  std::mt19937_64 rng(seed ^ 0xabcdefULL);
  const rna::Sequence long_strand = rna::random_sequence(21, rng);
  const rna::Sequence short_strand = rna::random_sequence(6, rng);
  const rna::ScoringModel model = rna::ScoringModel::bpmax_default();

  const std::vector<Backend> backends = swept_backends();
  core::ScanOptions scan;
  scan.window = 7;
  scan.stride = 3;
  for (const Backend backend : backends) {
    ASSERT_TRUE(core::simd::set_backend(backend));
    const std::vector<core::WindowScore> windows =
        core::scan_windows(long_strand, short_strand, model, scan);
    ASSERT_FALSE(windows.empty());
    for (const core::WindowScore& w : windows) {
      std::vector<rna::Base> bases(
          long_strand.begin() + w.offset,
          long_strand.begin() + w.offset + w.length);
      const rna::Sequence sub(std::move(bases));
      const float direct =
          core::bpmax_score(sub, short_strand, model, scan.solver);
      ASSERT_EQ(w.score, direct)
          << "window offset=" << w.offset << " length=" << w.length
          << " on " << core::simd::backend_name(backend);
    }
  }
}

}  // namespace
