#ifndef RRI_BENCH_BBOX_FTABLE_HPP
#define RRI_BENCH_BBOX_FTABLE_HPP

/// \file bbox_ftable.hpp
/// The paper's default F-table memory map, kept only for the Fig. 10
/// ablation: the bounding box of the variable's domain, M²·N² floats of
/// which one quarter is used, with block (i1, j1) at (i1·M + j1)·N².
/// Inner map Option 1, so `fill_permuted_layout` (bpmax_layout.hpp) runs
/// the same algorithm over it as over the packed tables it is compared
/// with. The product's FTable packs the outer triangle instead.

#include <cstddef>
#include <limits>
#include <vector>

#include "rri/core/packed_ftable.hpp"

namespace rri::bench {

class BoundingBoxFTable {
 public:
  using inner_map = core::InnerMapOption1;

  BoundingBoxFTable(int m, int n)
      : m_(m),
        n_(n),
        data_(static_cast<std::size_t>(m) * static_cast<std::size_t>(m) *
                  static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
              -std::numeric_limits<float>::infinity()) {}

  int m() const noexcept { return m_; }
  int n() const noexcept { return n_; }
  std::size_t allocated() const noexcept { return data_.size(); }

  float* row(int i1, int j1, int i2) noexcept {
    return data_.data() + row_offset(i1, j1, i2);
  }
  const float* row(int i1, int j1, int i2) const noexcept {
    return data_.data() + row_offset(i1, j1, i2);
  }

 private:
  std::size_t row_offset(int i1, int j1, int i2) const noexcept {
    const auto m = static_cast<std::size_t>(m_);
    const auto n = static_cast<std::size_t>(n_);
    return ((static_cast<std::size_t>(i1) * m + static_cast<std::size_t>(j1)) *
                n +
            static_cast<std::size_t>(i2)) *
           n;
  }

  int m_ = 0;
  int n_ = 0;
  std::vector<float> data_;
};

}  // namespace rri::bench

#endif  // RRI_BENCH_BBOX_FTABLE_HPP
