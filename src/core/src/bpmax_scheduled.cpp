/// The threaded BPMax schedules — fine (Table II), hybrid (Table IV) and
/// hybrid_tiled (Table V) — as one driver over a FillSchedule.
///
/// Diagonals d1 run in order. The band stage — R0 plus the piggy-backed
/// R3/R4, the bulk of the work — is parceled into work items of one row
/// block each that sweep every k1 split privately
/// (detail/band_items.hpp), so a band stage ends in one barrier. Fine
/// bands one triangle at a time and finalizes it serially (R1/R2 carry
/// row-to-row "OSP-like" dependences), leaving threads idle during the
/// finalization; hybrid bands the whole diagonal at once, then finalizes
/// the diagonal's triangles coarse grain, each inside one thread. Tiled
/// items chop their (i2, k2, j2) space into TileShape3 blocks — k2 in the
/// middle, j2 innermost and untiled by default (the streaming dimension;
/// cubic tiles perform poorly, Fig. 18).

#include "rri/core/bpmax_kernels.hpp"

#include <algorithm>

#include "rri/core/detail/band_items.hpp"
#include "rri/core/detail/triangle_ops.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/obs/obs.hpp"

namespace rri::core {

void fill_scheduled(FTable& f, const STable& s1t, const STable& s2t,
                    const rna::ScoreTables& scores, FillSchedule schedule,
                    TileShape3 tile, int r12_jblock) {
  const int m = f.m();
  const int n = f.n();
  const auto band = [&](int d1, int first_i1, int count) {
    // Phase scopes sit on the orchestrating thread, outside the parallel
    // regions, so the recorded phase times are wall-clock.
    RRI_OBS_PHASE(obs::Phase::kDmpBand);
    detail::run_band(
        n, d1, d1, first_i1, count, tile, "dmp_band.omp",
        [&](int i1, int j1, int k1, TileShape3 t, int first, int last) {
          float* acc = f.block(i1, j1);
          const float* a = f.block(i1, k1);
          const float* b = f.block(k1 + 1, j1);
          const float r3add = s1t.at(k1 + 1, j1);
          const float r4add = s1t.at(i1, k1);
          if (schedule.tiled) {
            simd::maxplus_tiled(acc, a, b, r3add, r4add, n, t, first, last);
          } else {
            simd::maxplus_rows(acc, a, b, r3add, r4add, n, first * t.ti2,
                               std::min(last * t.ti2, n));
          }
        });
  };
  const auto finalize = [&](int i1, int j1) {
    if (r12_jblock > 0) {
      detail::finalize_triangle_blocked(f, s1t, s2t, scores, i1, j1,
                                        r12_jblock);
    } else {
      detail::finalize_triangle(f, s1t, s2t, scores, i1, j1);
    }
  };
  for (int d1 = 0; d1 < m; ++d1) {
    if (schedule.diagonal_scope) {
      band(d1, 0, m - d1);
      // Each triangle reads only completed diagonals and its own block.
      RRI_OBS_PHASE(obs::Phase::kFinalize);
      detail::run_triangles(d1, m - d1, "finalize.omp", finalize);
    } else {
      for (int i1 = 0; i1 + d1 < m; ++i1) {
        band(d1, i1, 1);
        RRI_OBS_PHASE(obs::Phase::kFinalize);
        finalize(i1, i1 + d1);
      }
    }
  }
}

}  // namespace rri::core
