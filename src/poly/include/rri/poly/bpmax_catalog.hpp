#ifndef RRI_POLY_BPMAX_CATALOG_HPP
#define RRI_POLY_BPMAX_CATALOG_HPP

/// \file bpmax_catalog.hpp
/// The BPMax program as polyhedral data: its statements, the dependence
/// relations of Fig. 6, and the paper's published multi-dimensional
/// affine schedules (Tables I-IV; Table V's subsystem split reuses the
/// hybrid root schedule) — transcribed so check_dependence can certify
/// every one of them, and so deliberately-corrupted variants are caught.
///
/// Statements and domains (0-based, M/N are the strand lengths):
///   F  (i1,j1,i2,j2)        the table update
///   R0 (i1,j1,i2,j2,k1,k2)  double max-plus body
///   R1 (i1,j1,i2,j2,k2)     S2(i2,k2)   + F(i1,j1,k2+1,j2)
///   R2 (i1,j1,i2,j2,k2)     F(i1,j1,i2,k2) + S2(k2+1,j2)
///   R3 (i1,j1,i2,j2,k1)     F(i1,k1,i2,j2) + S1(k1+1,j1)
///   R4 (i1,j1,i2,j2,k1)     S1(i1,k1)   + F(k1+1,j1,i2,j2)
/// Every domain space carries the parameters (M, N) as leading
/// dimensions. Reduction-accumulator initialization statements (the
/// second rows of the paper's tables) are not modeled: our kernels fold
/// initialization into the -inf table fill.

#include <map>

#include "rri/poly/schedule.hpp"

namespace rri::poly {

/// Domain space of a statement by name ("F", "R0", ..., "R4").
Space statement_space(const std::string& stmt);

/// The 13 dependence relations of the full BPMax recurrence: the two
/// pair cases (c1/c2), and for each reduction both its reads of F and
/// the use of its result by F.
std::vector<Dependence> bpmax_dependences();

/// The 3 dependence relations of the standalone double max-plus problem
/// (R0's two reads and F's use of R0).
std::vector<Dependence> dmp_dependences();

/// A named assignment of schedules to statements.
struct ScheduleSet {
  std::string name;
  std::string description;
  /// Whether the innermost loop dimension is the vectorizable j2 stream
  /// (false when k2 is innermost — "auto-vectorization is prohibited if
  /// k2 is the innermost loop iteration").
  bool vectorizable = true;
  std::map<std::string, StmtSchedule> by_stmt;
  /// Per statement, the schedule levels whose loops run their iterations
  /// concurrently (an `omp for`). Only the executed sets name them; the
  /// paper's tables are checked for ordering alone.
  std::map<std::string, std::vector<int>> parallel_levels;
};

/// Full-BPMax schedule sets: the original program order, the paper's
/// Table II (fine), Table III (coarse) and Table IV (hybrid) as reference
/// rows, and the orders the threaded fills execute — "fine_executed" (the
/// fine preset) and "hybrid_executed" (the hybrid and hybrid_tiled
/// presets), with their parallel levels.
std::vector<ScheduleSet> bpmax_schedule_catalog();

/// Double max-plus schedule sets (Table I family): the original order,
/// the three legal vectorizable permutations the paper discusses, a
/// legal-but-unvectorizable k2-innermost permutation, and one
/// deliberately illegal set (negative control for the checker).
std::vector<ScheduleSet> dmp_schedule_catalog();

struct CatalogVerdict {
  std::string schedule_set;
  std::string dependence;
  bool legal = false;
  /// The level at which the dependence is violated, or carried by a
  /// parallel level of its source or target; -1 when legal.
  int violation_level = -1;
};

/// Check every dependence of `deps` under `set`: it must be ordered
/// lexicographically and not carried at any parallel level of its source
/// or target statement. Dependences touching a statement the set lacks
/// are skipped.
std::vector<CatalogVerdict> verify_schedule_set(
    const ScheduleSet& set, const std::vector<Dependence>& deps);

bool all_legal(const std::vector<CatalogVerdict>& verdicts);

}  // namespace rri::poly

#endif  // RRI_POLY_BPMAX_CATALOG_HPP
