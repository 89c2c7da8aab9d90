#ifndef RRI_CORE_DOUBLE_MAXPLUS_HPP
#define RRI_CORE_DOUBLE_MAXPLUS_HPP

/// \file double_maxplus.hpp
/// The dominant Θ(M³N³) kernel of BPMax in isolation (the paper's Eq. 4
/// and the object of its Figs. 13/14/17/18):
///
///   F(i1,j1,i2,j2) = max_{k1 in [i1,j1)} max_{k2 in [i2,j2)}
///                      F(i1,k1,i2,k2) + F(k1+1,j1,k2+1,j2)
///
/// posed as a standalone problem: cells with j1 == i1 or j2 == i2 are
/// inputs (deterministic pseudorandom values derived from a seed and the
/// cell coordinates, so every variant and fill order sees identical
/// inputs) and all interior cells are defined purely by the double
/// max-plus reduction. This mirrors the surrogate mini-app methodology of
/// Varadarajan that the paper benchmarks against.

#include <cstdint>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/ftable.hpp"

namespace rri::core {

enum class DmpVariant {
  kBaseline,   ///< original order (d1, d2, i1, i2, k1, k2), scalar
  kPermuted,   ///< triangle-by-triangle, vectorized j2-innermost, serial
  kCoarse,     ///< threads own triangles of a diagonal
  kFine,       ///< threads own rows of each max-plus instance
  kTiled,      ///< fine + TileShape3 tiling of (i2, k2, j2)
};

const char* dmp_variant_name(DmpVariant v) noexcept;
const std::vector<DmpVariant>& all_dmp_variants();

/// Deterministic input value for boundary cell (i1,j1,i2,j2) under `seed`;
/// uniform in [0, 4). Exposed so tests can verify inputs survive the fill.
float dmp_input_value(std::uint64_t seed, int i1, int j1, int i2, int j2);

/// Solve the standalone problem for strand lengths m, n.
FTable solve_double_maxplus(int m, int n, std::uint64_t seed, DmpVariant v,
                            TileShape3 tile = {});

/// Reference value of a single cell computed recursively from inputs with
/// memoization-free recursion — O(exponential), tests-on-tiny-sizes only.
float dmp_reference_cell(int m, int n, std::uint64_t seed, int i1, int j1,
                         int i2, int j2);

/// Log-sum-exp twin of the standalone problem: the same recurrence with
/// (max, +) replaced by (logaddexp, +) over fp64, exercising the lse_*
/// kernel dispatch in isolation. Inputs are dmp_input_value widened to
/// double. Every variant applies each cell's reduction in the same
/// (k1, k2)-lexicographic order, so all variants (including kBaseline)
/// produce bit-identical tables.
ZTable solve_double_lse(int m, int n, std::uint64_t seed, DmpVariant v,
                        TileShape3 tile = {});

/// Recursive reference for one cell of the log-sum-exp problem. Applies
/// the same reduction order as solve_double_lse, but compare with a
/// tolerance anyway — the contract is the math, not the rounding.
double dmp_lse_reference_cell(int m, int n, std::uint64_t seed, int i1,
                              int j1, int i2, int j2);

}  // namespace rri::core

#endif  // RRI_CORE_DOUBLE_MAXPLUS_HPP
