#ifndef RRI_CORE_DETAIL_BAND_ITEMS_HPP
#define RRI_CORE_DETAIL_BAND_ITEMS_HPP

/// \file band_items.hpp
/// The work decomposition shared by every threaded band stage (BPMax
/// fine/hybrid/hybrid_tiled, the standalone double max-plus driver and
/// every BPPart variant), the per-triangle loop that follows a
/// diagonal-scope band, and the thread-count guard their solvers share.
///
/// Row i2 of an accumulator F(i1,j1) reads only row i2 of F(i1,k1) and
/// rows >= i2 of F(k1+1,j1) — completed triangles — so rows are
/// independent across the whole k1 split loop, not just within one k1
/// step. (BPPart's split operand row i2 likewise feeds only row i2 of
/// Z(i1,j1).) A work item is therefore one row block of one triangle and
/// runs that block's entire k1 sweep privately: a band stage is one `omp
/// for` and ends in one barrier, however many splits it covers. Each cell
/// still receives its updates k1 ascending, then in the kernel's own
/// order, so tables stay bit-identical to the serial sweep.

#include <omp.h>

#include <algorithm>

#include "rri/core/bpmax.hpp"
#include "rri/trace/trace.hpp"

namespace rri::core::detail {

/// RAII save/restore of the OpenMP max-thread setting so an explicit
/// thread count (> 0; 0 keeps the current setting) does not leak into
/// the caller's runtime state.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int requested)
      : saved_(omp_get_max_threads()), active_(requested > 0) {
    if (active_) {
      omp_set_num_threads(requested);
    }
  }
  ~ThreadCountGuard() {
    if (active_) {
      omp_set_num_threads(saved_);
    }
  }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
  bool active_;
};

/// Threads a parallel region opened here would get (1 when nested inside
/// another region, e.g. the windowed scan's per-window loop).
inline int band_threads() {
  return omp_in_parallel() ? 1 : omp_get_max_threads();
}

/// Row-block height for a band stage over `triangles` triangles of n rows
/// on `threads` threads. Starts at the tile height (n when untiled) and
/// halves while the heaviest item — block 0 of a triangle, because row
/// i2's R0 wedge costs ~(n - i2)^2, so rows [0, g) carry 1 - (1 - g/n)^3
/// of the triangle — would outweigh an even per-thread share of the stage.
/// One thread never splits.
inline int band_grain(int tile_rows, int n, int triangles, int threads) {
  int grain = (tile_rows > 0 && tile_rows < n) ? tile_rows : n;
  const auto top_share = [n](int rows) {
    const double rest = 1.0 - static_cast<double>(rows) / n;
    return 1.0 - rest * rest * rest;
  };
  while (grain > 1 && top_share(grain) * threads > triangles) {
    grain = (grain + 1) / 2;
  }
  return grain;
}

/// One band stage over the triangles (i1, i1 + d1), i1 in [first_i1,
/// first_i1 + count), as a single dynamic `omp for` over its work items,
/// heaviest first: row block 0 of every triangle, then block 1, and so on.
/// An item calls step(i1, j1, k1, tile, block_begin, block_end) for the
/// split positions k1 = i1, ..., i1 + splits - 1 ascending (BPMax splits
/// d1 times, BPPart d1 + 1), where `tile` is the caller's with ti2 set to
/// the grain and the item's rows are [block_begin * ti2,
/// min(block_end * ti2, n)): one block, or the whole triangle on one
/// thread. Each item is one trace span named `span`, so barrier and tail
/// waits show as idle lane time.
template <class Step>
void run_band(int n, int d1, int splits, int first_i1, int count,
              TileShape3 tile, const char* span, const Step& step) {
  if (splits == 0 || n == 0) {
    return;  // no splits, or no rows
  }
  const int threads = band_threads();
  tile.ti2 = band_grain(tile.ti2, n, count, threads);
  const int blocks = (n + tile.ti2 - 1) / tile.ti2;
  // One thread gains nothing from splitting a triangle, and sweeping k1
  // outside the blocks keeps each split's pair of source blocks cached
  // across all of them, so it gets one item per triangle.
  const int per_item = threads == 1 ? blocks : 1;
  const int items = (blocks + per_item - 1) / per_item;
  // The team is at most `threads`, so per-thread state sized by
  // band_threads() covers every omp_get_thread_num().
#pragma omp parallel for num_threads(threads) schedule(dynamic)
  for (int item = 0; item < count * items; ++item) {
    RRI_TRACE_SPAN(span);
    const int i1 = first_i1 + item % count;
    const int first = item / count * per_item;
    const int last = std::min(first + per_item, blocks);
    for (int k1 = i1; k1 < i1 + splits; ++k1) {
      step(i1, i1 + d1, k1, tile, first, last);
    }
  }
}

/// The per-triangle stage after a diagonal-scope band: fn(i1, i1 + d1)
/// for i1 in [0, count), one triangle per item of a dynamic `omp for`,
/// each item one trace span named `span`.
template <class Fn>
void run_triangles(int d1, int count, const char* span, const Fn& fn) {
#pragma omp parallel for schedule(dynamic)
  for (int i1 = 0; i1 < count; ++i1) {
    RRI_TRACE_SPAN(span);
    fn(i1, i1 + d1);
  }
}

}  // namespace rri::core::detail

#endif  // RRI_CORE_DETAIL_BAND_ITEMS_HPP
