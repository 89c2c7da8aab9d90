#ifndef RRI_CORE_BPMAX_HPP
#define RRI_CORE_BPMAX_HPP

/// \file bpmax.hpp
/// Public entry point for BPMax: maximum weighted base-pair count of the
/// joint (intra- + inter-molecular, non-crossing) secondary structure of
/// two RNA strands, per Ebrahimpour-Boroojeny et al. 2019, in the six
/// implementation variants engineered in Mondal & Rajopadhye 2021.
///
/// Θ(M³N³) time, Θ(M²N²) space. All variants compute bit-identical
/// tables; they differ in schedule, parallelization and tiling:
///
///   kBaseline       original diagonal-by-diagonal program order
///                   (d1, d2, i1, i2, k1, k2), scalar — the paper's
///                   speedup reference.
///   kSerialPermuted triangle-by-triangle with vectorizable inner loops
///                   (Phase-I loop permutation), single thread.
///   kCoarse         threads own distinct inner triangles (Table III).
///   kFine           threads take row blocks of one triangle, each
///                   sweeping every k1 split; the R1/R2 finalization
///                   stays serial (Table II).
///   kHybrid         row blocks of every triangle on the diagonal for
///                   R0/R3/R4, coarse-grain for the F/R1/R2
///                   finalization (Table IV).
///   kHybridTiled    hybrid + rectangular tiling of the dominant double
///                   max-plus band (Table V); the paper's best.
///
/// fine, hybrid and hybrid_tiled are presets of one driver
/// (fill_scheduled in bpmax_kernels.hpp); their row blocks are tile.ti2
/// rows high.

#include <string>
#include <vector>

#include "rri/core/ftable.hpp"
#include "rri/core/stable.hpp"
#include "rri/rna/scoring.hpp"
#include "rri/rna/sequence.hpp"

namespace rri::core {

enum class Variant {
  kBaseline,
  kSerialPermuted,
  kCoarse,
  kFine,
  kHybrid,
  kHybridTiled,
};

/// Stable lower_snake name for reports ("baseline", "hybrid_tiled", ...).
const char* variant_name(Variant v) noexcept;

/// All variants, in the order above.
const std::vector<Variant>& all_variants();

/// Tile extents for the (i2, k2, j2) band of the double max-plus
/// reduction. 0 means "leave that dimension untiled". The default is the
/// paper's generic best shape, 32×4 with j2 untiled for the streaming
/// effect (cubic tiles perform poorly — Fig. 18).
struct TileShape3 {
  int ti2 = 32;
  int tk2 = 4;
  int tj2 = 0;
};

struct BpmaxOptions {
  Variant variant = Variant::kHybridTiled;
  /// Band tile for kHybridTiled; its ti2 is also the row-block height of
  /// the fine/hybrid/hybrid_tiled work items.
  TileShape3 tile{};
  /// OpenMP thread count for parallel variants; 0 keeps the runtime's
  /// current setting.
  int num_threads = 0;
  /// kHybridTiled only: block width for the R1/R2 finalization sweep
  /// (the paper's future-work "apply tiling on R1 and R2"); 0 keeps the
  /// paper's unblocked sweep. Results are bit-identical either way.
  int r12_jblock = 0;
};

/// Everything a caller may want after a solve. The F-table is the full
/// Θ(M²N²) DP state, retained so tracebacks and window queries need no
/// recomputation; move it out if you only need the score.
struct BpmaxResult {
  float score = 0.0f;  ///< F(0, M-1, 0, N-1)
  STable s1;
  STable s2;
  FTable f;
};

/// Solve BPMax for the pair (strand1, strand2). strand2 is taken in the
/// orientation the recurrence expects (intermolecular pairs are parallel:
/// i1 < j1 implies i2 < j2); callers holding both strands 5'->3' should
/// pass strand2.reversed() — see examples/quickstart.cpp.
BpmaxResult bpmax_solve(const rna::Sequence& strand1,
                        const rna::Sequence& strand2,
                        const rna::ScoringModel& model,
                        const BpmaxOptions& options = {});

/// Score-only convenience wrapper.
float bpmax_score(const rna::Sequence& strand1, const rna::Sequence& strand2,
                  const rna::ScoringModel& model,
                  const BpmaxOptions& options = {});

}  // namespace rri::core

#endif  // RRI_CORE_BPMAX_HPP
