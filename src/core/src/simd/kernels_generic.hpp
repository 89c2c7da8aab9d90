#ifndef RRI_CORE_SRC_SIMD_KERNELS_GENERIC_HPP
#define RRI_CORE_SRC_SIMD_KERNELS_GENERIC_HPP

/// \file kernels_generic.hpp
/// Semiring-generic bodies of the dispatched kernels. Every loop nest is
/// the reference schedule (j2 innermost, `#pragma omp simd`, no
/// intrinsics) with the algebra lifted to a SemiringPolicy: `plus`
/// replaces max, `times` replaces +. Every form applies a cell's updates
/// in the same order (dense R3/R4 pass first, then the k2 reduction
/// ascending), so the rows and tiled schedules agree bit for bit even
/// under log-add-exp, which does not reassociate exactly.
///
/// This is the only tropical kernel body. Each backend row of the
/// dispatch table is this header compiled in its own TU with that ISA's
/// flags (kernels_scalar.cpp, kernels_avx2.cpp, kernels_avx512.cpp); the
/// compiler vectorizes the j2 loops to the TU's vector width, as the
/// paper's AlphaZ-generated C is vectorized. A tropical candidate is one
/// fp32 add and one max, applied per cell in the same order on every
/// ISA, so the compilations agree bit for bit. The templates sit in an
/// unnamed namespace: each TU keeps its own instantiations, which the
/// linker would otherwise fold into one (whichever ISA it saw first)
/// because they share a mangled name.
///
/// Kernel contract (see rri/core/simd/maxplus_simd.hpp): acc, a, b are
/// N x N row-major triangle blocks, rows unit-stride in j2,
///
///   acc[i2][j2] (+)=  (+)_{k2 in [i2, j2)}  a[i2][k2] (x) b[k2+1][j2]
///
/// with the maxplus_* forms folding the dense wedge first:
///
///   acc[i2][j2] (+)=  (a[i2][j2] (x) r3add) (+) (r4add (x) b[i2][j2])
///
/// where (+)/(x) are the policy's plus/times. Passing r3add = one() and
/// r4add = zero() turns the wedge term into a plain `(+)= a[i2][j2]`,
/// which is how the BPPart inside fill injects its split-at-the-right-end
/// terms (src/bppart.cpp).

#include <algorithm>
#include <cstddef>

#include "rri/core/bpmax.hpp"
#include "rri/semiring/logsumexp.hpp"
#include "rri/semiring/tropical.hpp"
#include "simd/kernels.hpp"

namespace rri::core::simd::generic {
namespace {

template <semiring::SemiringPolicy P>
void r0_rows(typename P::value_type* acc, const typename P::value_type* a,
             const typename P::value_type* b, int n, int row_begin,
             int row_end) noexcept {
  using V = typename P::value_type;
  const auto stride = static_cast<std::size_t>(n);
  for (int i2 = row_begin; i2 < row_end; ++i2) {
    V* accrow = acc + static_cast<std::size_t>(i2) * stride;
    const V* arow = a + static_cast<std::size_t>(i2) * stride;
    for (int k2 = i2; k2 < n - 1; ++k2) {
      const V alpha = arow[k2];
      const V* b2 = b + static_cast<std::size_t>(k2 + 1) * stride;
#pragma omp simd
      for (int j2 = k2 + 1; j2 < n; ++j2) {
        accrow[j2] = P::plus(accrow[j2], P::times(alpha, b2[j2]));
      }
    }
  }
}

template <semiring::SemiringPolicy P>
void r0_tiled(typename P::value_type* acc, const typename P::value_type* a,
              const typename P::value_type* b, int n, TileShape3 tile,
              int tile_begin, int tile_end) noexcept {
  using V = typename P::value_type;
  const auto stride = static_cast<std::size_t>(n);
  const int ti = tile.ti2 > 0 ? tile.ti2 : n;
  const int tk = tile.tk2 > 0 ? tile.tk2 : n;
  const int tj = tile.tj2 > 0 ? tile.tj2 : n;
  for (int it = tile_begin; it < tile_end; ++it) {
    const int i2_lo = it * ti;
    const int i2_hi = std::min(i2_lo + ti, n);
    for (int kk = i2_lo; kk < n - 1; kk += tk) {
      const int k2_cap = std::min(kk + tk, n - 1);
      for (int jj = kk + 1; jj < n; jj += tj) {
        const int j2_cap = std::min(jj + tj, n);
        for (int i2 = i2_lo; i2 < i2_hi; ++i2) {
          V* accrow = acc + static_cast<std::size_t>(i2) * stride;
          const V* arow = a + static_cast<std::size_t>(i2) * stride;
          const int k2_lo = std::max(kk, i2);
          for (int k2 = k2_lo; k2 < k2_cap; ++k2) {
            const V alpha = arow[k2];
            const V* b2 = b + static_cast<std::size_t>(k2 + 1) * stride;
            const int j2_lo = std::max(jj, k2 + 1);
#pragma omp simd
            for (int j2 = j2_lo; j2 < j2_cap; ++j2) {
              accrow[j2] = P::plus(accrow[j2], P::times(alpha, b2[j2]));
            }
          }
        }
      }
    }
  }
}

/// Register-blocked pure-R0 schedule (the paper's future-work second
/// tiling level): 4-row x 32-column accumulator blocks held across the
/// whole k2 reduction; boundary rows/columns and the near-diagonal wedge
/// fall back to the streaming form. No fill variant calls it (it lost to
/// r0_tiled at every probed shape, see EXPERIMENTS.md "Ablations"); it
/// stays a public kernel.
template <semiring::SemiringPolicy P>
void r0_regblocked(typename P::value_type* acc,
                   const typename P::value_type* a,
                   const typename P::value_type* b, int n) noexcept {
  using V = typename P::value_type;
  constexpr int kRows = 4;
  constexpr int kCols = 32;
  const auto stride = static_cast<std::size_t>(n);
  int ib = 0;
  for (; ib + kRows <= n; ib += kRows) {
    for (int jj = ib + 1; jj < n; jj += kCols) {
      const int jw = std::min(kCols, n - jj);
      // Full-block contributions: k2 >= ib+kRows-1 keeps every row of the
      // block valid, k2 <= jj-1 keeps every column valid.
      const int k_lo = ib + kRows - 1;
      const int k_hi = jj - 1;
      if (k_lo <= k_hi) {
        V racc[kRows][kCols];
        for (int r = 0; r < kRows; ++r) {
          const V* arow = acc + static_cast<std::size_t>(ib + r) * stride;
#pragma omp simd
          for (int x = 0; x < jw; ++x) {
            racc[r][x] = arow[jj + x];
          }
        }
        for (int k2 = k_lo; k2 <= k_hi; ++k2) {
          const V* bv = b + static_cast<std::size_t>(k2 + 1) * stride + jj;
          for (int r = 0; r < kRows; ++r) {
            const V alpha = a[static_cast<std::size_t>(ib + r) * stride +
                              static_cast<std::size_t>(k2)];
#pragma omp simd
            for (int x = 0; x < jw; ++x) {
              racc[r][x] = P::plus(racc[r][x], P::times(alpha, bv[x]));
            }
          }
        }
        for (int r = 0; r < kRows; ++r) {
          V* arow = acc + static_cast<std::size_t>(ib + r) * stride;
#pragma omp simd
          for (int x = 0; x < jw; ++x) {
            arow[jj + x] = racc[r][x];
          }
        }
      }
      // Per-row remainders: the head k2 range a row owns before the
      // block-uniform k_lo, and the partial wedge with k2 inside the
      // column block.
      for (int r = 0; r < kRows; ++r) {
        const int row = ib + r;
        V* accrow = acc + static_cast<std::size_t>(row) * stride;
        const V* arow = a + static_cast<std::size_t>(row) * stride;
        const int head_hi = std::min(k_lo - 1, k_hi);
        for (int k2 = row; k2 <= head_hi; ++k2) {
          const V alpha = arow[k2];
          const V* bv = b + static_cast<std::size_t>(k2 + 1) * stride;
#pragma omp simd
          for (int j2 = jj; j2 < jj + jw; ++j2) {
            accrow[j2] = P::plus(accrow[j2], P::times(alpha, bv[j2]));
          }
        }
        const int wedge_lo = std::max(row, jj);
        const int wedge_hi = std::min(jj + jw - 2, n - 2);
        for (int k2 = wedge_lo; k2 <= wedge_hi; ++k2) {
          const V alpha = arow[k2];
          const V* bv = b + static_cast<std::size_t>(k2 + 1) * stride;
#pragma omp simd
          for (int j2 = k2 + 1; j2 < jj + jw; ++j2) {
            accrow[j2] = P::plus(accrow[j2], P::times(alpha, bv[j2]));
          }
        }
      }
    }
  }
  if (ib < n) {
    r0_rows<P>(acc, a, b, n, ib, n);
  }
}

template <semiring::SemiringPolicy P>
void maxplus_rows(typename P::value_type* acc,
                  const typename P::value_type* a,
                  const typename P::value_type* b,
                  typename P::value_type r3add, typename P::value_type r4add,
                  int n, int row_begin, int row_end) noexcept {
  using V = typename P::value_type;
  const auto stride = static_cast<std::size_t>(n);
  for (int i2 = row_begin; i2 < row_end; ++i2) {
    V* accrow = acc + static_cast<std::size_t>(i2) * stride;
    const V* arow = a + static_cast<std::size_t>(i2) * stride;
    const V* brow = b + static_cast<std::size_t>(i2) * stride;
#pragma omp simd
    for (int j2 = i2; j2 < n; ++j2) {
      const V v = P::plus(P::times(arow[j2], r3add), P::times(r4add, brow[j2]));
      accrow[j2] = P::plus(accrow[j2], v);
    }
    for (int k2 = i2; k2 < n - 1; ++k2) {
      const V alpha = arow[k2];
      const V* b2 = b + static_cast<std::size_t>(k2 + 1) * stride;
#pragma omp simd
      for (int j2 = k2 + 1; j2 < n; ++j2) {
        accrow[j2] = P::plus(accrow[j2], P::times(alpha, b2[j2]));
      }
    }
  }
}

template <semiring::SemiringPolicy P>
void maxplus_tiled(typename P::value_type* acc,
                   const typename P::value_type* a,
                   const typename P::value_type* b,
                   typename P::value_type r3add, typename P::value_type r4add,
                   int n, TileShape3 tile, int tile_begin,
                   int tile_end) noexcept {
  using V = typename P::value_type;
  const auto stride = static_cast<std::size_t>(n);
  const int ti = tile.ti2 > 0 ? tile.ti2 : n;
  const int tk = tile.tk2 > 0 ? tile.tk2 : n;
  const int tj = tile.tj2 > 0 ? tile.tj2 : n;
  for (int it = tile_begin; it < tile_end; ++it) {
    const int i2_lo = it * ti;
    const int i2_hi = std::min(i2_lo + ti, n);
    // R3/R4 pass for this row band (dense over j2 >= i2). Runs before
    // any R0 tile of the band, preserving the rows form's per-cell
    // update order (wedge first, then k2 ascending).
    for (int i2 = i2_lo; i2 < i2_hi; ++i2) {
      V* accrow = acc + static_cast<std::size_t>(i2) * stride;
      const V* arow = a + static_cast<std::size_t>(i2) * stride;
      const V* brow = b + static_cast<std::size_t>(i2) * stride;
#pragma omp simd
      for (int j2 = i2; j2 < n; ++j2) {
        const V v =
            P::plus(P::times(arow[j2], r3add), P::times(r4add, brow[j2]));
        accrow[j2] = P::plus(accrow[j2], v);
      }
    }
    // Tiled R0. Valid points satisfy i2 <= k2 < j2 < n; tiles entirely
    // outside that wedge are skipped by the bound intersections.
    for (int kk = i2_lo; kk < n - 1; kk += tk) {
      const int k2_cap = std::min(kk + tk, n - 1);
      for (int jj = kk + 1; jj < n; jj += tj) {
        const int j2_cap = std::min(jj + tj, n);
        for (int i2 = i2_lo; i2 < i2_hi; ++i2) {
          V* accrow = acc + static_cast<std::size_t>(i2) * stride;
          const V* arow = a + static_cast<std::size_t>(i2) * stride;
          const int k2_lo = std::max(kk, i2);
          for (int k2 = k2_lo; k2 < k2_cap; ++k2) {
            const V alpha = arow[k2];
            const V* b2 = b + static_cast<std::size_t>(k2 + 1) * stride;
            const int j2_lo = std::max(jj, k2 + 1);
#pragma omp simd
            for (int j2 = j2_lo; j2 < j2_cap; ++j2) {
              accrow[j2] = P::plus(accrow[j2], P::times(alpha, b2[j2]));
            }
          }
        }
      }
    }
  }
}

/// The tropical kernel set as compiled for the including TU's ISA.
constexpr KernelSet tropical_kernel_set() noexcept {
  using Tropical = semiring::MaxPlus<float>;
  return {r0_rows<Tropical>, r0_tiled<Tropical>, r0_regblocked<Tropical>,
          maxplus_rows<Tropical>, maxplus_tiled<Tropical>};
}

}  // namespace
}  // namespace rri::core::simd::generic

#endif  // RRI_CORE_SRC_SIMD_KERNELS_GENERIC_HPP
