#include "rri/poly/bpmax_catalog.hpp"

#include <stdexcept>

namespace rri::poly {

namespace {

const std::vector<std::string> kFDims = {"M", "N", "i1", "j1", "i2", "j2"};

std::vector<std::string> with_extra(std::vector<std::string> extra) {
  std::vector<std::string> dims = kFDims;
  dims.insert(dims.end(), extra.begin(), extra.end());
  return dims;
}

/// Common interval bounds 0 <= i1 <= j1 <= M-1 and 0 <= i2 <= j2 <= N-1
/// on a space that contains all six core dimensions.
void add_core_bounds(ConstraintSystem& cs) {
  const ExprBuilder b(cs.space());
  cs.add_ge(b("i1"), b.constant(0));
  cs.add_ge(b("j1"), b("i1"));
  cs.add_le(b("j1"), b("M") - 1);
  cs.add_ge(b("i2"), b.constant(0));
  cs.add_ge(b("j2"), b("i2"));
  cs.add_le(b("j2"), b("N") - 1);
}

/// Coordinate map into a statement's domain given expressions for each of
/// its dimensions, by name, over `space`.
std::vector<AffineExpr> coords(const Space& space,
                               const std::vector<std::string>& stmt_dims,
                               const std::map<std::string, AffineExpr>& exprs) {
  const ExprBuilder b(space);
  std::vector<AffineExpr> out;
  out.reserve(stmt_dims.size());
  for (const std::string& dim : stmt_dims) {
    const auto it = exprs.find(dim);
    out.push_back(it != exprs.end() ? it->second : b(dim));
  }
  return out;
}

/// Shorthand: build a StmtSchedule for statement `stmt` with time
/// components given as expressions over that statement's space.
StmtSchedule sched(const std::string& stmt,
                   const std::vector<AffineExpr>& time) {
  return StmtSchedule{statement_space(stmt), time};
}

}  // namespace

Space statement_space(const std::string& stmt) {
  if (stmt == "F") {
    return Space(kFDims);
  }
  if (stmt == "R0") {
    return Space(with_extra({"k1", "k2"}));
  }
  if (stmt == "R1" || stmt == "R2") {
    return Space(with_extra({"k2"}));
  }
  if (stmt == "R3" || stmt == "R4") {
    return Space(with_extra({"k1"}));
  }
  throw std::invalid_argument("unknown BPMax statement: " + stmt);
}

namespace {

/// Dependences of R0 and F's use of R0 (shared by the full program and
/// the standalone double max-plus problem).
void add_r0_dependences(std::vector<Dependence>& deps) {
  const Space sp = statement_space("R0");
  const ExprBuilder b(sp);

  ConstraintSystem dom(sp);
  add_core_bounds(dom);
  dom.add_ge(b("k1"), b("i1"));
  dom.add_lt(b("k1"), b("j1"));
  dom.add_ge(b("k2"), b("i2"));
  dom.add_lt(b("k2"), b("j2"));

  const std::vector<std::string> r0_dims = {"M", "N", "i1", "j1",
                                            "i2", "j2", "k1", "k2"};
  const auto tgt_r0 = coords(sp, r0_dims, {});

  deps.push_back(Dependence{
      "R0 reads F(i1,k1,i2,k2)", "F", "R0", dom,
      coords(sp, kFDims, {{"j1", b("k1")}, {"j2", b("k2")}}), tgt_r0});
  deps.push_back(Dependence{
      "R0 reads F(k1+1,j1,k2+1,j2)", "F", "R0", dom,
      coords(sp, kFDims, {{"i1", b("k1") + 1}, {"i2", b("k2") + 1}}),
      tgt_r0});
  deps.push_back(Dependence{
      "F uses R0(i1,j1,i2,j2,k1,k2)", "R0", "F", dom, tgt_r0,
      coords(sp, kFDims, {})});
}

}  // namespace

std::vector<Dependence> dmp_dependences() {
  std::vector<Dependence> deps;
  add_r0_dependences(deps);
  return deps;
}

std::vector<Dependence> bpmax_dependences() {
  std::vector<Dependence> deps;

  // --- c1: F(i1,j1,...) reads F(i1+1,j1-1,...) when the interior is
  // non-empty (j1 >= i1 + 2; the j1 == i1+1 case reads S2 instead).
  {
    const Space sp = statement_space("F");
    const ExprBuilder b(sp);
    ConstraintSystem dom(sp);
    add_core_bounds(dom);
    dom.add_ge(b("j1"), b("i1") + 2);
    deps.push_back(Dependence{
        "c1 reads F(i1+1,j1-1,i2,j2)", "F", "F", dom,
        coords(sp, kFDims, {{"i1", b("i1") + 1}, {"j1", b("j1") - 1}}),
        coords(sp, kFDims, {})});
  }
  // --- c2: symmetric on strand 2.
  {
    const Space sp = statement_space("F");
    const ExprBuilder b(sp);
    ConstraintSystem dom(sp);
    add_core_bounds(dom);
    dom.add_ge(b("j2"), b("i2") + 2);
    deps.push_back(Dependence{
        "c2 reads F(i1,j1,i2+1,j2-1)", "F", "F", dom,
        coords(sp, kFDims, {{"i2", b("i2") + 1}, {"j2", b("j2") - 1}}),
        coords(sp, kFDims, {})});
  }

  add_r0_dependences(deps);

  // --- R1 / R2 (split over k2).
  for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
    const Space sp = statement_space(stmt);
    const ExprBuilder b(sp);
    ConstraintSystem dom(sp);
    add_core_bounds(dom);
    dom.add_ge(b("k2"), b("i2"));
    dom.add_lt(b("k2"), b("j2"));
    const std::vector<std::string> body_dims = {"M", "N", "i1", "j1",
                                                "i2", "j2", "k2"};
    const auto tgt_body = coords(sp, body_dims, {});
    if (stmt == "R1") {
      deps.push_back(Dependence{
          "R1 reads F(i1,j1,k2+1,j2)", "F", stmt, dom,
          coords(sp, kFDims, {{"i2", b("k2") + 1}}), tgt_body});
    } else {
      deps.push_back(Dependence{
          "R2 reads F(i1,j1,i2,k2)", "F", stmt, dom,
          coords(sp, kFDims, {{"j2", b("k2")}}), tgt_body});
    }
    deps.push_back(Dependence{
        "F uses " + stmt, stmt, "F", dom, tgt_body, coords(sp, kFDims, {})});
  }

  // --- R3 / R4 (split over k1).
  for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
    const Space sp = statement_space(stmt);
    const ExprBuilder b(sp);
    ConstraintSystem dom(sp);
    add_core_bounds(dom);
    dom.add_ge(b("k1"), b("i1"));
    dom.add_lt(b("k1"), b("j1"));
    const std::vector<std::string> body_dims = {"M", "N", "i1", "j1",
                                                "i2", "j2", "k1"};
    const auto tgt_body = coords(sp, body_dims, {});
    if (stmt == "R3") {
      deps.push_back(Dependence{
          "R3 reads F(i1,k1,i2,j2)", "F", stmt, dom,
          coords(sp, kFDims, {{"j1", b("k1")}}), tgt_body});
    } else {
      deps.push_back(Dependence{
          "R4 reads F(k1+1,j1,i2,j2)", "F", stmt, dom,
          coords(sp, kFDims, {{"i1", b("k1") + 1}}), tgt_body});
    }
    deps.push_back(Dependence{
        "F uses " + stmt, stmt, "F", dom, tgt_body, coords(sp, kFDims, {})});
  }

  return deps;
}

namespace {

/// Shorthand for schedule construction over a statement's space.
struct SchedBuilder {
  explicit SchedBuilder(const std::string& stmt)
      : space(statement_space(stmt)), b(space) {}

  AffineExpr operator()(const std::string& name) const { return b(name); }
  AffineExpr c(std::int64_t v) const { return b.constant(v); }

  Space space;
  ExprBuilder b;
};

}  // namespace

std::vector<ScheduleSet> bpmax_schedule_catalog() {
  std::vector<ScheduleSet> catalog;

  // --- Original program order: (j1-i1, j2-i2, i1, i2, k1, k2) with the
  // table write after all split loops of its cell.
  {
    ScheduleSet set;
    set.name = "original";
    set.description =
        "original BPMax program order: diagonal-by-diagonal on both "
        "triangle levels, reductions innermost (k2 innermost blocks "
        "vectorization)";
    set.vectorizable = false;
    {
      SchedBuilder s("F");
      // The table write happens after every split loop of its cell; its
      // fifth component must dominate both k1 (< M) and k2 (< N), hence
      // M + N.
      set.by_stmt["F"] = sched(
          "F", {s("j1") - s("i1"), s("j2") - s("i2"), s("i1"), s("i2"),
                s("M") + s("N"), s.c(0)});
    }
    {
      SchedBuilder s("R0");
      set.by_stmt["R0"] = sched(
          "R0", {s("j1") - s("i1"), s("j2") - s("i2"), s("i1"), s("i2"),
                 s("k1"), s("k2")});
    }
    for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s("j1") - s("i1"), s("j2") - s("i2"), s("i1"), s("i2"),
                 s("k2"), s("N")});
    }
    for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s("j1") - s("i1"), s("j2") - s("i2"), s("i1"), s("i2"),
                 s("k1"), s("N")});
    }
    catalog.push_back(std::move(set));
  }

  // --- Table II: fine-grain schedule (parallel dimension 5, i.e. the
  // -i2 row dimension of each instance).
  {
    ScheduleSet set;
    set.name = "fine";
    set.description =
        "Table II fine-grain: triangles bottom-up (-i1, j1), split "
        "instances ordered by k1, rows of each instance independent";
    {
      SchedBuilder s("F");
      set.by_stmt["F"] = sched(
          "F", {s.c(1), -s("i1"), s("j1"), s("j1"), -s("i2"), s.c(0),
                s("j2"), s.c(0)});
    }
    for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), -s("i1"), s("j1"), s("j1"), -s("i2"), s.c(0),
                 s("k2"), s("j2")});
    }
    {
      SchedBuilder s("R0");
      set.by_stmt["R0"] = sched(
          "R0", {s.c(1), -s("i1"), s("j1"), s("k1"), s.c(-1), -s("i2"),
                 s("k2"), s("j2")});
    }
    for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), -s("i1"), s("j1"), s("k1"), s.c(-1), -s("i2"),
                 s("i2"), s("j2")});
    }
    catalog.push_back(std::move(set));
  }

  // --- Table III: coarse-grain schedule (parallel dimension 2: distinct
  // triangles i1 of one diagonal).
  {
    ScheduleSet set;
    set.name = "coarse";
    set.description =
        "Table III coarse-grain: diagonal-by-diagonal over triangles, "
        "threads own whole triangles";
    {
      SchedBuilder s("F");
      set.by_stmt["F"] = sched(
          "F", {s.c(1), s("j1") - s("i1"), s("i1"), s("j1"), -s("i2"),
                s("j2"), s("j2")});
    }
    for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), s("j1") - s("i1"), s("i1"), s("j1"), -s("i2"),
                 s("k2"), s("j2")});
    }
    {
      SchedBuilder s("R0");
      set.by_stmt["R0"] = sched(
          "R0", {s.c(1), s("j1") - s("i1"), s("i1"), s("k1"), s("i2"),
                 s("k2"), s("j2")});
    }
    for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), s("j1") - s("i1"), s("i1"), s("k1"), s("i2"),
                 s("i2"), s("j2")});
    }
    catalog.push_back(std::move(set));
  }

  // --- Table IV: hybrid schedule. R0/R3/R4 run per-triangle (fine
  // grain); F/R1/R2 are deferred to "time M" within the diagonal and run
  // coarse grain (parallel dimension 4, the i1 of the finalization).
  {
    ScheduleSet set;
    set.name = "hybrid";
    set.description =
        "Table IV hybrid: fine-grain splits, coarse-grain finalization "
        "(F/R1/R2 scheduled at component M, after every k1 <= M-1)";
    {
      SchedBuilder s("F");
      set.by_stmt["F"] = sched(
          "F", {s.c(1), s("j1") - s("i1"), s("M"), s.c(0), s("i1"),
                -s("i2"), s("j2"), s.c(0)});
    }
    for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), s("j1") - s("i1"), s("M"), s.c(0), s("i1"),
                 -s("i2"), s("k2"), s("j2")});
    }
    {
      SchedBuilder s("R0");
      set.by_stmt["R0"] = sched(
          "R0", {s.c(1), s("j1") - s("i1"), s("i1"), s("k1"), s("i2"),
                 s("k2"), s("j2"), s.c(0)});
    }
    for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, {s.c(1), s("j1") - s("i1"), s("i1"), s("k1"), s("i2"),
                 s("i2"), s("j2"), s.c(0)});
    }
    catalog.push_back(std::move(set));
  }

  // --- The orders the threaded fills execute (src/core/src/
  // bpmax_scheduled.cpp). A band work item is one (i1, i2-block) pair that
  // sweeps every k1 privately: R0/R3/R4 at (d1, 0, i1, i2-block, k1, i2,
  // k2, j2), R3/R4 at k2 = i2 - 1 because the kernels fold them before the
  // row's k2 sweep; F/R1/R2 follow as component 1 (after the band
  // barrier). The i2-block component is modeled at its finest grain, i2
  // itself: it is certified parallel, so no dependence joins two rows of
  // one band, and every coarser blocking only merges rows — the
  // certificate covers any block height and either kernel's order inside
  // an item. hybrid bands and finalizes a whole diagonal (i1 parallel);
  // fine does one triangle at a time, finalizing it serially.
  const auto executed = [](const std::string& name, bool diagonal_scope) {
    ScheduleSet set;
    set.name = name;
    set.description =
        diagonal_scope
            ? "executed by hybrid and hybrid_tiled: (d1, i1, i2-block) band "
              "items each sweep k1, one barrier, then coarse F/R1/R2"
            : "executed by fine: per triangle, i2-block band items each "
              "sweep k1, one barrier, then serial F/R1/R2";
    // Leading components: (d1, stage, i1) for a diagonal-wide stage,
    // (d1, i1, stage) for a per-triangle one.
    const auto head = [diagonal_scope](const SchedBuilder& s, int stage) {
      const AffineExpr d1 = s("j1") - s("i1");
      return diagonal_scope
                 ? std::vector<AffineExpr>{d1, s.c(stage), s("i1")}
                 : std::vector<AffineExpr>{d1, s("i1"), s.c(stage)};
    };
    const auto with = [](std::vector<AffineExpr> t,
                         std::vector<AffineExpr> tail) {
      t.insert(t.end(), tail.begin(), tail.end());
      return t;
    };
    const std::vector<int> band_par =
        diagonal_scope ? std::vector<int>{2, 3} : std::vector<int>{3};
    {
      SchedBuilder s("F");
      set.by_stmt["F"] = sched(
          "F", with(head(s, 1), {-s("i2"), s("j2"), s.c(0), s.c(0), s.c(0)}));
    }
    for (const auto& stmt : {std::string("R1"), std::string("R2")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, with(head(s, 1), {-s("i2"), s("k2"), s("j2"), s.c(0), s.c(0)}));
    }
    if (diagonal_scope) {
      for (const auto& stmt : {"F", "R1", "R2"}) {
        set.parallel_levels[stmt] = {2};
      }
    }
    {
      SchedBuilder s("R0");
      set.by_stmt["R0"] = sched(
          "R0", with(head(s, 0), {s("i2"), s("k1"), s("i2"), s("k2"), s("j2")}));
      set.parallel_levels["R0"] = band_par;
    }
    for (const auto& stmt : {std::string("R3"), std::string("R4")}) {
      SchedBuilder s(stmt);
      set.by_stmt[stmt] = sched(
          stmt, with(head(s, 0), {s("i2"), s("k1"), s("i2"), s("i2") - 1,
                                  s("j2")}));
      set.parallel_levels[stmt] = band_par;
    }
    return set;
  };
  catalog.push_back(executed("fine_executed", false));
  catalog.push_back(executed("hybrid_executed", true));

  return catalog;
}

std::vector<ScheduleSet> dmp_schedule_catalog() {
  std::vector<ScheduleSet> catalog;

  auto make = [](std::string name, std::string description, bool vectorizable,
                 std::vector<AffineExpr> f_time,
                 std::vector<AffineExpr> r0_time) {
    ScheduleSet set;
    set.name = std::move(name);
    set.description = std::move(description);
    set.vectorizable = vectorizable;
    set.by_stmt["F"] = sched("F", std::move(f_time));
    set.by_stmt["R0"] = sched("R0", std::move(r0_time));
    return set;
  };

  const SchedBuilder f("F");
  const SchedBuilder r("R0");

  catalog.push_back(make(
      "original",
      "original order (j1-i1, j2-i2, i1, i2, k1, k2); k2 innermost",
      false,
      {f("j1") - f("i1"), f("j2") - f("i2"), f("i1"), f("i2"), f("M"),
       f("N")},
      {r("j1") - r("i1"), r("j2") - r("i2"), r("i1"), r("i2"), r("k1"),
       r("k2")}));

  catalog.push_back(make(
      "permuted_diag",
      "triangles by diagonal (j1-i1, i1), instances by k1, j2 innermost",
      true,
      {f("j1") - f("i1"), f("i1"), f("j1"), f("i2"), f("j2"), f("j2")},
      {r("j1") - r("i1"), r("i1"), r("k1"), r("i2"), r("k2"), r("j2")}));

  catalog.push_back(make(
      "permuted_bottomup",
      "triangles bottom-up then left-to-right (-i1, j1), j2 innermost",
      true,
      {-f("i1"), f("j1"), f("j1"), f("i2"), f("j2"), f("j2")},
      {-r("i1"), r("j1"), r("k1"), r("i2"), r("k2"), r("j2")}));

  catalog.push_back(make(
      "permuted_mrev",
      "triangles by (M-i1, j1), j2 innermost",
      true,
      {f("M") - f("i1"), f("j1"), f("j1"), f("i2"), f("j2"), f("j2")},
      {r("M") - r("i1"), r("j1"), r("k1"), r("i2"), r("k2"), r("j2")}));

  catalog.push_back(make(
      "permuted_k2_inner",
      "legal permutation that keeps k2 innermost (vectorization blocked)",
      false,
      {f("j1") - f("i1"), f("i1"), f("j1"), f("i2"), f("j2"), f("j2")},
      {r("j1") - r("i1"), r("i1"), r("k1"), r("i2"), r("j2"), r("k2")}));

  catalog.push_back(make(
      "broken_f_before_r0",
      "negative control: the table write is scheduled before its own "
      "reduction body",
      true,
      {f("j1") - f("i1"), f("i1"), f.c(0), f("i2"), f("j2"), f("j2")},
      {r("j1") - r("i1"), r("i1"), r.c(1), r("i2"), r("k2"), r("j2")}));

  return catalog;
}

std::vector<CatalogVerdict> verify_schedule_set(
    const ScheduleSet& set, const std::vector<Dependence>& deps) {
  std::vector<CatalogVerdict> verdicts;
  for (const Dependence& dep : deps) {
    const auto src = set.by_stmt.find(dep.src_stmt);
    const auto tgt = set.by_stmt.find(dep.tgt_stmt);
    if (src == set.by_stmt.end() || tgt == set.by_stmt.end()) {
      continue;
    }
    LegalityResult r = check_dependence(dep, src->second, tgt->second);
    for (const std::string& stmt : {dep.src_stmt, dep.tgt_stmt}) {
      const auto par = set.parallel_levels.find(stmt);
      if (!r.legal || par == set.parallel_levels.end()) {
        continue;
      }
      for (const int level : par->second) {
        if (carried_at(dep, src->second, tgt->second, level)) {
          r = {false, level};
          break;
        }
      }
    }
    verdicts.push_back(
        CatalogVerdict{set.name, dep.name, r.legal, r.violation_level});
  }
  return verdicts;
}

bool all_legal(const std::vector<CatalogVerdict>& verdicts) {
  for (const CatalogVerdict& v : verdicts) {
    if (!v.legal) {
      return false;
    }
  }
  return true;
}

}  // namespace rri::poly
