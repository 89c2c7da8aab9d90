#ifndef RRI_CORE_BPMAX_KERNELS_HPP
#define RRI_CORE_BPMAX_KERNELS_HPP

/// \file bpmax_kernels.hpp
/// The individual BPMax fill kernels, one per schedule/parallelization
/// variant. Exposed (rather than hidden behind bpmax_solve) so tests can
/// cross-validate variants cell-by-cell and benches can time the fill in
/// isolation from S-table construction and allocation.
///
/// Contract shared by every kernel: `f` is freshly allocated (all -inf)
/// with f.m() == scores.m() and f.n() == scores.n(); `s1t`/`s2t` are the
/// completed single-strand tables. On return every cell with
/// i1 <= j1 and i2 <= j2 holds the BPMax value F(i1,j1,i2,j2).

#include "rri/core/bpmax.hpp"
#include "rri/core/ftable.hpp"
#include "rri/core/stable.hpp"
#include "rri/rna/scoring.hpp"

namespace rri::core {

void fill_baseline(FTable& f, const STable& s1t, const STable& s2t,
                   const rna::ScoreTables& scores);

void fill_serial_permuted(FTable& f, const STable& s1t, const STable& s2t,
                          const rna::ScoreTables& scores);

void fill_coarse(FTable& f, const STable& s1t, const STable& s2t,
                 const rna::ScoreTables& scores);

/// How the threaded schedules (Tables II, IV, V) parcel a fill. The band
/// stage (R0/R3/R4) runs as work items of one row block each that sweep
/// every k1 split privately; the schedules differ only in the fields
/// below, and the paper's names are the presets that follow.
struct FillSchedule {
  /// Band items span every triangle of the diagonal, and the diagonal's
  /// finalizations (F/R1/R2) then run coarse grain, one triangle per
  /// thread. When false, items span one triangle, which is finalized
  /// serially right after its band.
  bool diagonal_scope = false;
  /// Items run the TileShape3-tiled kernel rather than the row kernel.
  bool tiled = false;
};

inline constexpr FillSchedule kFineSchedule{false, false};         // Table II
inline constexpr FillSchedule kHybridSchedule{true, false};        // Table IV
inline constexpr FillSchedule kHybridTiledSchedule{true, true};    // Table V

/// The one driver behind fine, hybrid and hybrid_tiled. Row blocks are
/// tile.ti2 rows high (all of n when 0), split finer only when one
/// triangle's top block would outweigh an even per-thread share of the
/// band; one thread takes a whole triangle per item. r12_jblock > 0
/// blocks the R1/R2 sweep (detail::finalize_triangle_blocked).
void fill_scheduled(FTable& f, const STable& s1t, const STable& s2t,
                    const rna::ScoreTables& scores, FillSchedule schedule,
                    TileShape3 tile, int r12_jblock = 0);

/// Dispatch on options.variant (ignores options.num_threads; bpmax_solve
/// owns thread-count plumbing).
void fill_variant(FTable& f, const STable& s1t, const STable& s2t,
                  const rna::ScoreTables& scores, const BpmaxOptions& options);

}  // namespace rri::core

#endif  // RRI_CORE_BPMAX_KERNELS_HPP
