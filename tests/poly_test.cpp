#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "rri/poly/bpmax_catalog.hpp"
#include "rri/poly/search.hpp"

namespace {

using namespace rri::poly;

// --------------------------------------------------------------- affine

TEST(Affine, EvalAndArithmetic) {
  const Space sp({"x", "y"});
  const ExprBuilder b(sp);
  const AffineExpr e = b("x") * 2 - b("y") + 3;
  const std::int64_t point[] = {5, 4};
  EXPECT_EQ(e.eval(point), 2 * 5 - 4 + 3);
  EXPECT_EQ((-e).eval(point), -9);
  EXPECT_EQ((e + e).eval(point), 18);
  EXPECT_EQ((e - e).eval(point), 0);
}

TEST(Affine, ConstantAndVariableFactories) {
  const AffineExpr c = AffineExpr::constant(3, 7);
  EXPECT_TRUE(c.is_constant());
  EXPECT_EQ(c.constant_term(), 7);
  const AffineExpr v = AffineExpr::variable(3, 1, -2);
  EXPECT_FALSE(v.is_constant());
  EXPECT_EQ(v.coeff(1), -2);
}

TEST(Affine, SubstituteComposes) {
  // e(x, y) = x + 2y over (x, y); substitute x = a - b, y = b + 1.
  const Space old_sp({"x", "y"});
  const Space new_sp({"a", "b"});
  const ExprBuilder ob(old_sp);
  const ExprBuilder nb(new_sp);
  const AffineExpr e = ob("x") + ob("y") * 2;
  const AffineExpr composed = e.substitute({nb("a") - nb("b"), nb("b") + 1});
  // = (a - b) + 2(b + 1) = a + b + 2
  const std::int64_t point[] = {10, 3};
  EXPECT_EQ(composed.eval(point), 15);
}

TEST(Affine, SubstituteArityChecked) {
  const AffineExpr e = AffineExpr::variable(2, 0);
  EXPECT_THROW(e.substitute({AffineExpr::constant(1, 0)}),
               std::invalid_argument);
}

TEST(Affine, ToStringReadable) {
  const Space sp({"i", "j"});
  const ExprBuilder b(sp);
  EXPECT_EQ((b("j") - b("i")).to_string(sp), "-i + j");
  EXPECT_EQ((b("i") * 3 + 1).to_string(sp), "3*i + 1");
  EXPECT_EQ(b.constant(0).to_string(sp), "0");
}

TEST(Space, IndexLookupAndErrors) {
  const Space sp({"M", "N", "i1"});
  EXPECT_EQ(sp.index("i1"), 2);
  EXPECT_THROW(sp.index("bogus"), std::out_of_range);
  EXPECT_EQ(sp.size(), 3);
}

// ----------------------------------------------------------- polyhedra

TEST(Polyhedron, ContainsChecksAllConstraints) {
  const Space sp({"x", "y"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_ge(b("x"), b.constant(0));
  cs.add_le(b("x"), b("y"));
  cs.add_eq(b("y"), b.constant(4));
  const std::int64_t in[] = {2, 4};
  const std::int64_t out1[] = {5, 4};
  const std::int64_t out2[] = {2, 3};
  EXPECT_TRUE(cs.contains(in));
  EXPECT_FALSE(cs.contains(out1));
  EXPECT_FALSE(cs.contains(out2));
}

TEST(Polyhedron, EmptyIntervalDetected) {
  const Space sp({"x"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_ge(b("x"), b.constant(1));
  cs.add_le(b("x"), b.constant(0));
  EXPECT_TRUE(cs.empty_rational());
}

TEST(Polyhedron, NonEmptyBoxDetected) {
  const Space sp({"x", "y"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_ge(b("x"), b.constant(0));
  cs.add_le(b("x"), b.constant(5));
  cs.add_ge(b("y"), b("x"));
  cs.add_le(b("y"), b.constant(5));
  EXPECT_FALSE(cs.empty_rational());
}

TEST(Polyhedron, ContradictoryEqualitiesDetected) {
  const Space sp({"x", "y"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_eq(b("x"), b("y"));
  cs.add_eq(b("x"), b("y") + 1);
  EXPECT_TRUE(cs.empty_rational());
}

TEST(Polyhedron, UnboundedSystemNonEmpty) {
  const Space sp({"x", "y", "z"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_ge(b("x") + b("y") - b("z"), b.constant(100));
  EXPECT_FALSE(cs.empty_rational());
}

TEST(Polyhedron, TransitiveChainContradiction) {
  // x < y, y < z, z < x is empty.
  const Space sp({"x", "y", "z"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_lt(b("x"), b("y"));
  cs.add_lt(b("y"), b("z"));
  cs.add_lt(b("z"), b("x"));
  EXPECT_TRUE(cs.empty_rational());
}

TEST(Polyhedron, IntegerPointEnumeration) {
  const Space sp({"x", "y"});
  const ExprBuilder b(sp);
  ConstraintSystem cs(sp);
  cs.add_ge(b("x"), b.constant(0));
  cs.add_le(b("x") + b("y"), b.constant(1));
  cs.add_ge(b("y"), b.constant(0));
  const auto pts = cs.integer_points_in_box(-1, 2, 100);
  // (0,0), (1,0), (0,1)
  EXPECT_EQ(pts.size(), 3u);
}

/// Randomized cross-check: FM emptiness agrees with brute-force integer
/// sampling whenever the sampling finds a point (FM says non-empty), and
/// when FM says empty the box has no points.
class FmVsSampling : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FmVsSampling, Agrees) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> cst(-6, 6);
  const Space sp({"x", "y", "z"});
  for (int trial = 0; trial < 30; ++trial) {
    ConstraintSystem cs(sp);
    // Bound the box so rational == integer on this domain is plausible;
    // the claim we test is one-directional (empty -> no points), which
    // holds unconditionally.
    const ExprBuilder b(sp);
    for (const auto* name : {"x", "y", "z"}) {
      cs.add_ge(b(name), b.constant(-4));
      cs.add_le(b(name), b.constant(4));
    }
    const int extra = 3;
    for (int c = 0; c < extra; ++c) {
      AffineExpr e(sp.size());
      for (int d = 0; d < sp.size(); ++d) {
        e.coeff(d) = coeff(rng);
      }
      e.constant_term() = cst(rng);
      cs.add_ge0(e);
    }
    const bool fm_empty = cs.empty_rational();
    const auto pts = cs.integer_points_in_box(-4, 4, 1);
    if (fm_empty) {
      EXPECT_TRUE(pts.empty()) << "FM claims empty but integer point exists";
    }
    if (!pts.empty()) {
      EXPECT_FALSE(fm_empty);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FmVsSampling,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ legality checks

TEST(Legality, ToyRecurrenceForwardSchedule) {
  // x[i] depends on x[i-1], 1 <= i <= 99. Schedule theta(i) = i is legal;
  // theta(i) = -i is not.
  const Space sp({"i"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  dom.add_ge(b("i"), b.constant(1));
  dom.add_le(b("i"), b.constant(99));
  const Dependence dep{"x[i-1] -> x[i]", "x",      "x", dom,
                       {b("i") - 1},     {b("i")}};
  const StmtSchedule forward{sp, {b("i")}};
  const StmtSchedule backward{sp, {-b("i")}};
  EXPECT_TRUE(check_dependence(dep, forward, forward).legal);
  const auto bad = check_dependence(dep, backward, backward);
  EXPECT_FALSE(bad.legal);
  EXPECT_EQ(bad.violation_level, 0);
}

TEST(Legality, EqualTimeIsViolation) {
  // Same toy dependence, schedule constant 0: source and target tie.
  const Space sp({"i"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  dom.add_ge(b("i"), b.constant(1));
  dom.add_le(b("i"), b.constant(9));
  const Dependence dep{"tie", "x", "x", dom, {b("i") - 1}, {b("i")}};
  const StmtSchedule flat{sp, {b.constant(0)}};
  const auto r = check_dependence(dep, flat, flat);
  EXPECT_FALSE(r.legal);
  EXPECT_EQ(r.violation_level, 1);  // "all components equal" level
}

TEST(Legality, MultiLevelResolution) {
  // 2-D: dep (i-1, j+5) -> (i, j); schedule (i, j) legal via level 0.
  const Space sp({"i", "j"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  dom.add_ge(b("i"), b.constant(1));
  dom.add_le(b("i"), b.constant(50));
  dom.add_ge(b("j"), b.constant(0));
  dom.add_le(b("j"), b.constant(50));
  const Dependence dep{
      "skewed", "x", "x", dom, {b("i") - 1, b("j") + 5}, {b("i"), b("j")}};
  const StmtSchedule ij{sp, {b("i"), b("j")}};
  EXPECT_TRUE(check_dependence(dep, ij, ij).legal);
  // Schedule (j, i): level 0 can tie (j vs j+5 -> j < j+5 violates).
  const StmtSchedule ji{sp, {b("j"), b("i")}};
  EXPECT_FALSE(check_dependence(dep, ji, ji).legal);
}

// ------------------------------------------------------ schedule search

TEST(Search, FindsForwardScheduleForChain) {
  // x[i] <- x[i-1]: any found schedule must be legal; (i) is the natural
  // one and lies in the candidate space.
  const Space sp({"M", "N", "i"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  dom.add_ge(b("i"), b.constant(1));
  dom.add_le(b("i"), b("M") - 1);
  const Dependence dep{"chain", "x", "x", dom, {b("M"), b("N"), b("i") - 1},
                       {b("M"), b("N"), b("i")}};
  const auto r = find_schedules({{"x", sp}}, {dep});
  ASSERT_TRUE(r.found);
  EXPECT_GE(r.levels, 1);
  EXPECT_TRUE(check_dependence(dep, r.schedules.at("x"),
                               r.schedules.at("x")).legal);
}

TEST(Search, FindsScheduleForSplitRecurrence) {
  // The 1-D R0 shadow: S[i,j] <- S[i,k], S[k+1,j]. A legal schedule
  // needs something like the diagonal (j - i); verify the search finds
  // one and it is certified.
  const Space s_sp({"M", "N", "i", "j"});
  const Space body_sp({"M", "N", "i", "j", "k"});
  const ExprBuilder b(body_sp);
  ConstraintSystem dom(body_sp);
  dom.add_ge(b("i"), b.constant(0));
  dom.add_le(b("j"), b("N") - 1);
  dom.add_ge(b("k"), b("i"));
  dom.add_lt(b("k"), b("j"));
  const auto f_coords = [&](AffineExpr lo, AffineExpr hi) {
    return std::vector<AffineExpr>{b("M"), b("N"), std::move(lo),
                                   std::move(hi)};
  };
  const std::vector<Dependence> deps = {
      {"reads left", "S", "S", dom, f_coords(b("i"), b("k")),
       f_coords(b("i"), b("j"))},
      {"reads right", "S", "S", dom, f_coords(b("k") + 1, b("j")),
       f_coords(b("i"), b("j"))},
  };
  const auto r = find_schedules({{"S", s_sp}}, deps);
  ASSERT_TRUE(r.found);
  for (const auto& dep : deps) {
    EXPECT_TRUE(check_dependence(dep, r.schedules.at("S"),
                                 r.schedules.at("S")).legal)
        << dep.name;
  }
}

TEST(Search, FindsScheduleForDmpSystem) {
  // The real double max-plus system (statements F and R0, 3 deps):
  // the search must discover a legal joint schedule automatically.
  const auto deps = dmp_dependences();
  const std::map<std::string, Space> spaces = {
      {"F", statement_space("F")}, {"R0", statement_space("R0")}};
  SearchOptions opt;
  opt.max_active_dims = 2;
  const auto r = find_schedules(spaces, deps, opt);
  ASSERT_TRUE(r.found);
  for (const auto& dep : deps) {
    EXPECT_TRUE(check_dependence(dep, r.schedules.at(dep.src_stmt),
                                 r.schedules.at(dep.tgt_stmt)).legal)
        << dep.name;
  }
}

TEST(Search, ReportsFailureForCyclicDependences) {
  // x[i] <- x[i+1] and x[i] <- x[i-1] simultaneously: no 1-D affine
  // order exists, and no deeper one either (the cycle is tight).
  const Space sp({"M", "N", "i"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  dom.add_ge(b("i"), b.constant(1));
  dom.add_le(b("i"), b("M") - 2);
  const std::vector<Dependence> deps = {
      {"fwd", "x", "x", dom, {b("M"), b("N"), b("i") - 1},
       {b("M"), b("N"), b("i")}},
      {"bwd", "x", "x", dom, {b("M"), b("N"), b("i") + 1},
       {b("M"), b("N"), b("i")}},
  };
  const auto r = find_schedules({{"x", sp}}, deps);
  EXPECT_FALSE(r.found);
}

TEST(Search, NoDependencesTrivialSchedule) {
  const Space sp({"M", "N", "i"});
  const auto r = find_schedules({{"x", sp}}, {});
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.levels, 1);
}

TEST(Search, UnknownStatementRejected) {
  const Space sp({"M", "N", "i"});
  const ExprBuilder b(sp);
  ConstraintSystem dom(sp);
  const Dependence dep{"dangling", "ghost", "x", dom,
                       {b("M"), b("N"), b("i")}, {b("M"), b("N"), b("i")}};
  EXPECT_THROW(find_schedules({{"x", sp}}, {dep}), std::invalid_argument);
}

// ------------------------------------------------------- BPMax catalog

TEST(Catalog, ThirteenBpmaxDependences) {
  EXPECT_EQ(bpmax_dependences().size(), 13u);
}

TEST(Catalog, StatementSpacesWellFormed) {
  EXPECT_EQ(statement_space("F").size(), 6);
  EXPECT_EQ(statement_space("R0").size(), 8);
  EXPECT_EQ(statement_space("R1").size(), 7);
  EXPECT_EQ(statement_space("R3").size(), 7);
  EXPECT_THROW(statement_space("R9"), std::invalid_argument);
}

TEST(Catalog, AllPublishedBpmaxSchedulesAreLegal) {
  const auto deps = bpmax_dependences();
  for (const auto& set : bpmax_schedule_catalog()) {
    const auto verdicts = verify_schedule_set(set, deps);
    EXPECT_EQ(verdicts.size(), deps.size()) << set.name;
    for (const auto& v : verdicts) {
      EXPECT_TRUE(v.legal) << set.name << " violates '" << v.dependence
                           << "' at level " << v.violation_level;
    }
  }
}

TEST(Catalog, DmpCatalogLegalExceptNegativeControl) {
  const auto deps = dmp_dependences();
  ASSERT_EQ(deps.size(), 3u);
  for (const auto& set : dmp_schedule_catalog()) {
    const auto verdicts = verify_schedule_set(set, deps);
    if (set.name == "broken_f_before_r0") {
      EXPECT_FALSE(all_legal(verdicts));
      for (const auto& v : verdicts) {
        if (!v.legal) {
          EXPECT_EQ(v.dependence, "F uses R0(i1,j1,i2,j2,k1,k2)");
          EXPECT_EQ(v.violation_level, 2);
        }
      }
    } else {
      EXPECT_TRUE(all_legal(verdicts)) << set.name;
    }
  }
}

TEST(Catalog, CorruptingAScheduleComponentIsDetected) {
  // Take the legal coarse set and reverse R0's diagonal component: split
  // instances then run before the shorter intervals they read.
  auto catalog = bpmax_schedule_catalog();
  auto coarse = std::find_if(catalog.begin(), catalog.end(),
                             [](const auto& s) { return s.name == "coarse"; });
  ASSERT_NE(coarse, catalog.end());
  StmtSchedule& r0 = coarse->by_stmt.at("R0");
  r0.time[1] = -r0.time[1];  // (j1 - i1) -> (i1 - j1)
  const auto verdicts = verify_schedule_set(*coarse, bpmax_dependences());
  EXPECT_FALSE(all_legal(verdicts));
}

ScheduleSet catalog_set(const std::string& name) {
  for (ScheduleSet& set : bpmax_schedule_catalog()) {
    if (set.name == name) {
      return set;
    }
  }
  ADD_FAILURE() << "no schedule set " << name;
  return {};
}

TEST(Catalog, ExecutedSchedulesNameTheirParallelLevels) {
  // Certified with the rest of the catalog above; here: the band's
  // (i1, i2-block) levels and the coarse finalization's i1 level are the
  // ones the certificate covers.
  const ScheduleSet fine = catalog_set("fine_executed");
  EXPECT_EQ(fine.parallel_levels.at("R0"), (std::vector<int>{3}));
  EXPECT_EQ(fine.parallel_levels.count("F"), 0u);
  const ScheduleSet hybrid = catalog_set("hybrid_executed");
  for (const char* stmt : {"R0", "R3", "R4"}) {
    EXPECT_EQ(hybrid.parallel_levels.at(stmt), (std::vector<int>{2, 3}))
        << stmt;
  }
  for (const char* stmt : {"F", "R1", "R2"}) {
    EXPECT_EQ(hybrid.parallel_levels.at(stmt), (std::vector<int>{2}))
        << stmt;
  }
}

TEST(Catalog, ParallelLevelsKeepEachCellOnOneItem) {
  // Reductions are modeled without their accumulator, so the dependences
  // alone would let a split loop (k1, k2) run concurrently and race on
  // one cell. A parallel component must be a function of the cell.
  for (const ScheduleSet& set : bpmax_schedule_catalog()) {
    for (const auto& [stmt, levels] : set.parallel_levels) {
      const StmtSchedule& sched = set.by_stmt.at(stmt);
      for (const int level : levels) {
        for (const char* split : {"k1", "k2"}) {
          const auto& names = sched.domain.names();
          if (std::find(names.begin(), names.end(), split) != names.end()) {
            EXPECT_EQ(sched.time[static_cast<std::size_t>(level)].coeff(
                          sched.domain.index(split)),
                      0)
                << set.name << " " << stmt << " level " << level;
          }
        }
      }
    }
  }
}

TEST(Catalog, ParallelFinalizeRowsAreRejected) {
  // Finalization rows run bottom-up because row i2 reads the finalized
  // row i2+1 (c2, R1): marking that level parallel must fail the check.
  ScheduleSet set = catalog_set("hybrid_executed");
  for (const char* stmt : {"F", "R1", "R2"}) {
    set.parallel_levels[stmt] = {2, 3};
  }
  bool c2_flagged = false;
  for (const auto& v : verify_schedule_set(set, bpmax_dependences())) {
    if (!v.legal) {
      EXPECT_EQ(v.violation_level, 3) << v.dependence;
      c2_flagged |= v.dependence == "c2 reads F(i1,j1,i2+1,j2-1)";
    }
  }
  EXPECT_TRUE(c2_flagged);
}

TEST(Catalog, VectorizabilityFlagsMatchPaper) {
  for (const auto& set : dmp_schedule_catalog()) {
    if (set.name == "original" || set.name == "permuted_k2_inner") {
      EXPECT_FALSE(set.vectorizable) << set.name;
    } else if (set.name != "broken_f_before_r0") {
      EXPECT_TRUE(set.vectorizable) << set.name;
    }
  }
}

TEST(Catalog, ViolationSystemOfLegalScheduleIsEmptyEverywhere) {
  // Spot-check violation systems directly against integer sampling for a
  // small parameter box: legal schedule -> no violating integer points.
  const auto deps = dmp_dependences();
  const auto catalog = dmp_schedule_catalog();
  const auto& permuted = catalog[1];  // permuted_diag
  ASSERT_EQ(permuted.name, "permuted_diag");
  for (const auto& dep : deps) {
    const auto& src = permuted.by_stmt.at(dep.src_stmt);
    const auto& tgt = permuted.by_stmt.at(dep.tgt_stmt);
    for (int level = 0; level <= src.levels(); ++level) {
      auto vs = violation_system(dep, src, tgt, level);
      // Fix parameters to a tiny concrete instance via extra constraints.
      const ExprBuilder b(vs.space());
      vs.add_eq(b("M"), b.constant(4));
      vs.add_eq(b("N"), b.constant(4));
      EXPECT_TRUE(vs.integer_points_in_box(-1, 4, 1).empty())
          << dep.name << " level " << level;
    }
  }
}

}  // namespace
