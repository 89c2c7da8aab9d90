#ifndef RRI_CORE_PACKED_FTABLE_HPP
#define RRI_CORE_PACKED_FTABLE_HPP

/// \file packed_ftable.hpp
/// The two inner-triangle memory maps the paper compares in Fig. 10, over
/// FTable's packed outer triangle (the Phase-II memory optimization):
///   Option 1: (i2, j2) -> (i2, j2)        — rows aligned by j2
///   Option 2: (i2, j2) -> (i2, j2 - i2)   — rows aligned by diagonal
/// The paper reports Option 1 always performs better; the ablation bench
/// measures both. FTable itself is Option 1.

#include <cstddef>

#include "rri/core/ftable.hpp"

namespace rri::core {

/// Inner-triangle map Option 1: identity. Row i2 is unit-stride in j2 and
/// the column index of cell (i2, j2) is j2 itself.
struct InnerMapOption1 {
  static constexpr std::size_t column(int i2, int j2) noexcept {
    (void)i2;
    return static_cast<std::size_t>(j2);
  }
};

/// Inner-triangle map Option 2: shift each row left by its index. Row i2
/// is still unit-stride in j2, but cells of equal j2 in different rows no
/// longer share a column (skews reuse across the k2 loop).
struct InnerMapOption2 {
  static constexpr std::size_t column(int i2, int j2) noexcept {
    return static_cast<std::size_t>(j2 - i2);
  }
};

/// FTable storage read and written through a policy-selected inner map.
/// Same accessor vocabulary as FTable so the layout-generic fill
/// (bpmax_layout.hpp) is written once against either.
template <typename InnerMap>
class PackedFTable {
 public:
  using inner_map = InnerMap;

  PackedFTable() = default;
  PackedFTable(int m, int n) : table_(m, n) {}

  int m() const noexcept { return table_.m(); }
  int n() const noexcept { return table_.n(); }
  std::size_t allocated() const noexcept { return table_.allocated(); }

  float at(int i1, int j1, int i2, int j2) const noexcept {
    return row(i1, j1, i2)[InnerMap::column(i2, j2)];
  }
  float& at(int i1, int j1, int i2, int j2) noexcept {
    return row(i1, j1, i2)[InnerMap::column(i2, j2)];
  }

  /// Pointer such that row(...)[InnerMap::column(i2, j2)] == at(...).
  float* row(int i1, int j1, int i2) noexcept {
    return table_.row(i1, j1, i2);
  }
  const float* row(int i1, int j1, int i2) const noexcept {
    return table_.row(i1, j1, i2);
  }

  /// Packed index of strand-1 interval [i1, j1] (FTable's `outer_index`).
  std::size_t tri_index(int i1, int j1) const noexcept {
    return outer_index(static_cast<std::size_t>(m()), i1, j1);
  }

 private:
  FTable table_;
};

}  // namespace rri::core

#endif  // RRI_CORE_PACKED_FTABLE_HPP
