#ifndef RRI_POLY_SCHEDULE_HPP
#define RRI_POLY_SCHEDULE_HPP

/// \file schedule.hpp
/// Multi-dimensional affine schedules (Feautrier-style) and the
/// dependence-legality check: a schedule assignment is legal for a
/// dependence src -> tgt when θ_tgt(x) ≻_lex θ_src(h(x)) for every point
/// x of the dependence polyhedron. The check builds, per lexicographic
/// level, the polyhedron of violating points and proves each empty.

#include <string>

#include "rri/poly/polyhedron.hpp"

namespace rri::poly {

/// Schedule of one statement: `time[t]` are affine expressions over the
/// statement's domain space (parameters included as leading dimensions).
struct StmtSchedule {
  Space domain;
  std::vector<AffineExpr> time;

  int levels() const noexcept { return static_cast<int>(time.size()); }
};

/// One dependence: for every point of `domain` (a polyhedron over
/// `space`), the source-statement instance at coordinates
/// `src_coords(point)` must execute before the target instance at
/// `tgt_coords(point)`. Statements are identified by name so catalogs can
/// bind schedules to them.
struct Dependence {
  std::string name;        ///< e.g. "R0 reads F(i1,k1,i2,k2)"
  std::string src_stmt;    ///< e.g. "F"
  std::string tgt_stmt;    ///< e.g. "R0"
  ConstraintSystem domain; ///< over `space()` == domain.space()
  std::vector<AffineExpr> src_coords;  ///< into src stmt's domain order
  std::vector<AffineExpr> tgt_coords;  ///< into tgt stmt's domain order

  const Space& space() const noexcept { return domain.space(); }
};

/// Outcome of checking one dependence under one schedule assignment.
struct LegalityResult {
  bool legal = false;
  /// When illegal: the lexicographic level at which a violation exists
  /// (levels() meaning "all components equal" — the dependence is not
  /// strictly ordered). -1 when legal.
  int violation_level = -1;
};

/// Check θ_tgt ≻_lex θ_src over the dependence domain. The two schedules
/// must have the same number of levels.
LegalityResult check_dependence(const Dependence& dep,
                                const StmtSchedule& src_schedule,
                                const StmtSchedule& tgt_schedule);

/// The violation polyhedron at one lexicographic level (exposed for tests
/// that cross-check FM emptiness against integer sampling). For
/// level < levels(): the first `level` components are equal and
/// θ_tgt[level] <= θ_src[level] - 1. For level == levels(): all
/// components equal (the dependence would not be strictly ordered).
/// The schedule is legal iff every one of these systems is empty.
ConstraintSystem violation_system(const Dependence& dep,
                                  const StmtSchedule& src_schedule,
                                  const StmtSchedule& tgt_schedule,
                                  int level);

/// True when the dependence may be carried at `level`: some instance pair
/// agrees on every earlier component and the target's component at
/// `level` is larger. A loop at that level must then run its iterations in
/// order; when false, they may run concurrently. Decided over the
/// rationals, so a false answer is a proof.
bool carried_at(const Dependence& dep, const StmtSchedule& src_schedule,
                const StmtSchedule& tgt_schedule, int level);

}  // namespace rri::poly

#endif  // RRI_POLY_SCHEDULE_HPP
