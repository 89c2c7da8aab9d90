#ifndef RRIBENCH_COMMON_HPP
#define RRIBENCH_COMMON_HPP

/// \file common.hpp
/// Input generation and the independent reference path shared by the
/// workloads and the layer probes.

#include <algorithm>
#include <cstddef>
#include <random>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bppart.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/rna/random.hpp"
#include "rri/rna/scoring.hpp"
#include "rri/rna/sequence.hpp"

namespace rribench {

/// One interaction pair as a user holds it (both strands 5'->3'), plus
/// strand 2 in the orientation bpmax_solve expects.
struct Pair {
  rri::rna::Sequence s1;
  rri::rna::Sequence s2;
  rri::rna::Sequence s2_solver;
};

/// An m-nt guide and an n-nt target that carries a planted site: the
/// guide's reverse complement with a quarter of its positions mutated,
/// at a seeded offset in a random background (truncated when n < m).
inline Pair planted_pair(int m, int n, std::mt19937_64& rng) {
  Pair p;
  p.s1 = rri::rna::random_sequence(static_cast<std::size_t>(m), rng);
  const rri::rna::Sequence site =
      rri::rna::mutated_reverse_complement(p.s1, rng, 0.25);
  std::vector<rri::rna::Base> bases =
      rri::rna::random_sequence(static_cast<std::size_t>(n), rng).bases();
  const int len = std::min(m, n);
  std::uniform_int_distribution<int> at(0, n - len);
  const int offset = at(rng);
  for (int k = 0; k < len; ++k) {
    bases[static_cast<std::size_t>(offset + k)] =
        site.bases()[static_cast<std::size_t>(k)];
  }
  p.s2 = rri::rna::Sequence(std::move(bases));
  p.s2_solver = p.s2.reversed();
  return p;
}

/// Forces the scalar SIMD backend for its lifetime, then lets the
/// dispatcher re-resolve (RRI_SIMD or CPUID), as a fresh process would.
class ScalarBackend {
 public:
  ScalarBackend() {
    rri::core::simd::set_backend(rri::core::simd::Backend::kScalar);
  }
  ~ScalarBackend() { rri::core::simd::reset_backend(); }
  ScalarBackend(const ScalarBackend&) = delete;
  ScalarBackend& operator=(const ScalarBackend&) = delete;
};

/// The reference BPMax score: the coarse variant, which shares no fill
/// schedule with the default hybrid_tiled, run under ScalarBackend.
/// Tropical scores are bit-identical across variants and backends.
inline float reference_score(const Pair& p,
                             const rri::rna::ScoringModel& model,
                             int threads) {
  rri::core::BpmaxOptions options;
  options.variant = rri::core::Variant::kCoarse;
  options.num_threads = threads;
  return rri::core::bpmax_score(p.s1, p.s2_solver, model, options);
}

/// The reference log partition function: the tiled BPPart schedule
/// (the default is row_parallel), at temperature 1.
inline double reference_log_z(const Pair& p,
                              const rri::rna::ScoringModel& model,
                              int threads) {
  rri::core::BppartOptions options;
  options.variant = rri::core::BppartVariant::kTiled;
  options.num_threads = threads;
  return rri::core::bppart_log_z(p.s1, p.s2_solver, model, options);
}

}  // namespace rribench

#endif  // RRIBENCH_COMMON_HPP
