#ifndef RRI_CORE_FTABLE_HPP
#define RRI_CORE_FTABLE_HPP

/// \file ftable.hpp
/// Storage for the 4-D BPMax/BPPart table T[i1][j1][i2][j2]: a triangular
/// collection of triangles. The outer triangle is packed (the paper's
/// Phase-II memory optimization): only the M(M+1)/2 strand-1 intervals
/// i1 <= j1 get a block, numbered row-major by `outer_index`. Each inner
/// triangle (fixed i1,j1) is a contiguous N×N block whose rows are
/// unit-stride in j2, which is what the vectorized kernels stream over.
/// Invariant: no fill writes a cell with j2 < i2, so each block's lower
/// half stays at the initial -inf (tests/ftable_test.cpp checks every
/// fill variant). The paper's default bounding-box map (M²·N²
/// elements) lives on only in the Fig. 10 bench.
///
/// The layout is algebra-independent, so the class is templated on the
/// element type: `FTable` (float) holds BPMax scores, `ZTable` (double)
/// holds the BPPart log-partition values. Cells start at the semiring
/// zero of their algebra — -inf for both max-plus and log-sum-exp —
/// which doubles as the reduction identity when kernels accumulate in
/// place (the paper's Phase-III memory map where the reduction variables
/// share storage with F).
///
/// `table_bytes` is the one footprint model: admission, tenant budgets,
/// the CLIs' --max-mem guards and the RRIF size check all price a table
/// with it.

#include <cstddef>
#include <limits>
#include <vector>

#include "rri/semiring/logsumexp.hpp"

namespace rri::core {

/// Number of strand-1 intervals [i1, j1], 0 <= i1 <= j1 < m: the blocks
/// of the packed outer triangle.
constexpr std::size_t outer_blocks(std::size_t m) noexcept {
  return m * (m + 1) / 2;
}

/// Packed index of strand-1 interval [i1, j1] in a strand of length m:
/// intervals enumerated by increasing i1, then j1; bijective onto
/// [0, outer_blocks(m)).
constexpr std::size_t outer_index(std::size_t m, int i1, int j1) noexcept {
  // Row i1 starts after the i1 previous rows of lengths m, m-1, ...
  const auto i = static_cast<std::size_t>(i1);
  return i * m - i * (i - 1) / 2 + static_cast<std::size_t>(j1 - i1);
}

template <typename T>
class BasicFTable {
 public:
  BasicFTable() = default;

  /// Allocate for strand lengths m and n; all cells start at `fill`
  /// (default -inf, the max-plus AND log-sum-exp zero).
  BasicFTable(int m, int n, T fill = -std::numeric_limits<T>::infinity())
      : m_(m),
        n_(n),
        data_(outer_blocks(static_cast<std::size_t>(m)) *
                  block_elements(static_cast<std::size_t>(n)),
              fill) {}

  /// Elements between the starts of consecutive rows of an inner block.
  /// Every index below goes through it, so it is the one place a padded
  /// stride would be introduced; the kernels take n as both row length
  /// and stride today.
  static constexpr std::size_t row_stride(std::size_t n) noexcept {
    return n;
  }

  /// Elements of one inner block: n rows of `row_stride(n)`.
  static constexpr std::size_t block_elements(std::size_t n) noexcept {
    return n * row_stride(n);
  }

  /// Bytes a table for strand lengths (m, n) allocates, computed in
  /// double so that pricing an absurd request cannot wrap around.
  static double bytes(std::size_t m, std::size_t n) noexcept {
    return static_cast<double>(outer_blocks(m)) *
           static_cast<double>(block_elements(n)) *
           static_cast<double>(sizeof(T));
  }

  int m() const noexcept { return m_; }
  int n() const noexcept { return n_; }

  /// Number of allocated elements: M(M+1)/2 blocks of N×N.
  std::size_t allocated() const noexcept { return data_.size(); }

  /// T(i1,j1,i2,j2); requires 0 <= i1 <= j1 < m, 0 <= i2 <= j2 < n.
  T at(int i1, int j1, int i2, int j2) const noexcept {
    return row(i1, j1, i2)[static_cast<std::size_t>(j2)];
  }

  T& at(int i1, int j1, int i2, int j2) noexcept {
    return row(i1, j1, i2)[static_cast<std::size_t>(j2)];
  }

  /// Pointer to the inner triangle for strand-1 interval [i1, j1]:
  /// an N×N row-major block; row i2 is unit-stride in j2.
  T* block(int i1, int j1) noexcept {
    return data_.data() + block_offset(i1, j1);
  }
  const T* block(int i1, int j1) const noexcept {
    return data_.data() + block_offset(i1, j1);
  }

  /// Unit-stride row: row(i1,j1,i2)[j2] == at(i1,j1,i2,j2).
  T* row(int i1, int j1, int i2) noexcept {
    return block(i1, j1) + row_offset(i2);
  }
  const T* row(int i1, int j1, int i2) const noexcept {
    return block(i1, j1) + row_offset(i2);
  }

 private:
  std::size_t row_offset(int i2) const noexcept {
    return static_cast<std::size_t>(i2) *
           row_stride(static_cast<std::size_t>(n_));
  }

  std::size_t block_offset(int i1, int j1) const noexcept {
    return outer_index(static_cast<std::size_t>(m_), i1, j1) *
           block_elements(static_cast<std::size_t>(n_));
  }

  int m_ = 0;
  int n_ = 0;
  std::vector<T> data_;
};

/// The BPMax score table (fp32, tropical algebra).
using FTable = BasicFTable<float>;

/// The BPPart inside table (fp64, log-sum-exp algebra): Z(i1,j1,i2,j2)
/// is the log of the partition function of the sub-problem restricted to
/// strand-1 interval [i1,j1] and strand-2 interval [i2,j2].
using ZTable = BasicFTable<double>;

/// Bytes the table of an (m, n) solve under `algebra` allocates: exactly
/// `allocated() * sizeof(T)` of the FTable (tropical) or ZTable
/// (log-sum-exp) the solver builds.
inline double table_bytes(std::size_t m, std::size_t n,
                          semiring::Algebra algebra) noexcept {
  return algebra == semiring::Algebra::kLogSumExp ? ZTable::bytes(m, n)
                                                  : FTable::bytes(m, n);
}

}  // namespace rri::core

#endif  // RRI_CORE_FTABLE_HPP
