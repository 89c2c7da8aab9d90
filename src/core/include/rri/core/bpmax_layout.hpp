#ifndef RRI_CORE_BPMAX_LAYOUT_HPP
#define RRI_CORE_BPMAX_LAYOUT_HPP

/// \file bpmax_layout.hpp
/// Layout-generic BPMax fill: the serial-permuted algorithm written
/// against any table type exposing FTable's m/n/row vocabulary plus an
/// `inner_map` of the form column(i2, j2) = j2 - offset(i2). Instantiated
/// with PackedFTable<InnerMapOption1/2> this realizes the two inner
/// memory maps of the paper's Fig. 10 (bench/fig10 ablation measures the
/// difference, and also instantiates it over a bounding-box outer map;
/// tests check both maps reproduce FTable's results).
///
/// Rows remain unit-stride in j2 under both maps — the offset only shifts
/// each row's origin — so the vectorized inner loops carry over; what
/// changes is cross-row alignment, i.e. how columns of B and acc line up
/// across the k2 reduction.

#include <algorithm>

#include "rri/core/bpmax.hpp"
#include "rri/core/maxops.hpp"
#include "rri/core/packed_ftable.hpp"
#include "rri/core/stable.hpp"
#include "rri/rna/scoring.hpp"

namespace rri::core {

namespace layout_detail {

template <typename InnerMap>
constexpr int row_offset(int i2) noexcept {
  // column(i2, j2) = j2 - offset(i2) for both shipped maps.
  return static_cast<int>(static_cast<std::size_t>(i2) -
                          InnerMap::column(i2, i2));
}

}  // namespace layout_detail

/// Fill `f` (all cells -inf, sized to scores) with the BPMax recurrence,
/// triangle by triangle with vectorizable inner loops; single-threaded.
template <typename Table>
void fill_permuted_layout(Table& f, const STable& s1t, const STable& s2t,
                          const rna::ScoreTables& sc) {
  using InnerMap = typename Table::inner_map;
  const int m = f.m();
  const int n = f.n();
  for (int d1 = 0; d1 < m; ++d1) {
    for (int i1 = 0; i1 + d1 < m; ++i1) {
      const int j1 = i1 + d1;
      // --- Split reductions R0/R3/R4 accumulate into the triangle. ---
      for (int k1 = i1; k1 < j1; ++k1) {
        const float r3add = s1t.at(k1 + 1, j1);
        const float r4add = s1t.at(i1, k1);
        for (int i2 = 0; i2 < n; ++i2) {
          const int off = layout_detail::row_offset<InnerMap>(i2);
          float* accrow = f.row(i1, j1, i2);
          const float* arow = f.row(i1, k1, i2);
          const float* brow = f.row(k1 + 1, j1, i2);
#pragma omp simd
          for (int j2 = i2; j2 < n; ++j2) {
            const float v =
                max2(arow[j2 - off] + r3add, r4add + brow[j2 - off]);
            accrow[j2 - off] = max2(accrow[j2 - off], v);
          }
          for (int k2 = i2; k2 < n - 1; ++k2) {
            const float alpha = arow[k2 - off];
            const int boff = layout_detail::row_offset<InnerMap>(k2 + 1);
            const float* b2 = f.row(k1 + 1, j1, k2 + 1);
#pragma omp simd
            for (int j2 = k2 + 1; j2 < n; ++j2) {
              accrow[j2 - off] =
                  max2(accrow[j2 - off], alpha + b2[j2 - boff]);
            }
          }
        }
      }
      // --- Finalization: S1+S2, pair cases, R1/R2 interleaved. ---
      const float s11 = s1t.at(i1, j1);
      const float w1 = (d1 >= 1) ? sc.intra1(i1, j1) : rna::kForbidden;
      for (int i2 = n - 1; i2 >= 0; --i2) {
        const int off = layout_detail::row_offset<InnerMap>(i2);
        float* row = f.row(i1, j1, i2);
        const float* s2row = s2t.row(i2);
#pragma omp simd
        for (int j2 = i2; j2 < n; ++j2) {
          row[j2 - off] = max2(row[j2 - off], s11 + s2row[j2]);
        }
        if (w1 != rna::kForbidden) {
          if (d1 == 1) {
#pragma omp simd
            for (int j2 = i2; j2 < n; ++j2) {
              row[j2 - off] = max2(row[j2 - off], s2row[j2] + w1);
            }
          } else if (d1 >= 2) {
            const float* prow = f.row(i1 + 1, j1 - 1, i2);
#pragma omp simd
            for (int j2 = i2; j2 < n; ++j2) {
              row[j2 - off] = max2(row[j2 - off], prow[j2 - off] + w1);
            }
          }
        }
        if (i2 + 1 < n) {
          const int noff = layout_detail::row_offset<InnerMap>(i2 + 1);
          const float* next = f.row(i1, j1, i2 + 1);
          row[i2 + 1 - off] =
              max2(row[i2 + 1 - off], s11 + sc.intra2(i2, i2 + 1));
#pragma omp simd
          for (int j2 = i2 + 2; j2 < n; ++j2) {
            row[j2 - off] =
                max2(row[j2 - off], next[j2 - 1 - noff] + sc.intra2(i2, j2));
          }
        }
        if (d1 == 0) {
          row[i2 - off] = max2(row[i2 - off], sc.inter(i1, i2));
        }
        for (int k2 = i2; k2 < n - 1; ++k2) {
          const float fik2 = row[k2 - off];
          const float s2a = s2row[k2];
          const int foff = layout_detail::row_offset<InnerMap>(k2 + 1);
          const float* frow2 = f.row(i1, j1, k2 + 1);
          const float* s2b = s2t.row(k2 + 1);
#pragma omp simd
          for (int j2 = k2 + 1; j2 < n; ++j2) {
            const float r1 = s2a + frow2[j2 - foff];
            const float r2 = fik2 + s2b[j2];
            row[j2 - off] = max2(row[j2 - off], max2(r1, r2));
          }
        }
      }
    }
  }
}

/// Solve on a table of any layout `fill_permuted_layout` accepts;
/// returns the table for inspection.
template <typename Table>
Table bpmax_solve_layout(const rna::Sequence& s1, const rna::Sequence& s2,
                         const rna::ScoringModel& model) {
  const int m = static_cast<int>(s1.size());
  const int n = static_cast<int>(s2.size());
  Table f(m, n);
  if (m == 0 || n == 0) {
    return f;
  }
  const STable s1t(s1, model);
  const STable s2t(s2, model);
  const rna::ScoreTables sc(s1, s2, model);
  fill_permuted_layout(f, s1t, s2t, sc);
  return f;
}

/// Solve on a packed table under inner map `InnerMap`.
template <typename InnerMap>
PackedFTable<InnerMap> bpmax_solve_packed(const rna::Sequence& s1,
                                          const rna::Sequence& s2,
                                          const rna::ScoringModel& model) {
  return bpmax_solve_layout<PackedFTable<InnerMap>>(s1, s2, model);
}

}  // namespace rri::core

#endif  // RRI_CORE_BPMAX_LAYOUT_HPP
