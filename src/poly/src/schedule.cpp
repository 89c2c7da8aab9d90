#include "rri/poly/schedule.hpp"

#include <stdexcept>

namespace rri::poly {

namespace {

/// θ components of one statement composed with the dependence's
/// coordinate map, yielding expressions over the dependence space.
std::vector<AffineExpr> composed_times(const StmtSchedule& schedule,
                                       const std::vector<AffineExpr>& coords) {
  if (static_cast<int>(coords.size()) != schedule.domain.size()) {
    throw std::invalid_argument(
        "dependence coordinate map arity does not match statement domain");
  }
  std::vector<AffineExpr> out;
  out.reserve(schedule.time.size());
  for (const AffineExpr& t : schedule.time) {
    out.push_back(t.substitute(coords));
  }
  return out;
}

}  // namespace

ConstraintSystem violation_system(const Dependence& dep,
                                  const StmtSchedule& src_schedule,
                                  const StmtSchedule& tgt_schedule,
                                  int level) {
  if (src_schedule.levels() != tgt_schedule.levels()) {
    throw std::invalid_argument("schedules must have equal level counts");
  }
  const int levels = src_schedule.levels();
  if (level < 0 || level > levels) {
    throw std::out_of_range("violation level out of range");
  }
  const auto src_t = composed_times(src_schedule, dep.src_coords);
  const auto tgt_t = composed_times(tgt_schedule, dep.tgt_coords);

  ConstraintSystem system = dep.domain;
  for (int r = 0; r < std::min(level, levels); ++r) {
    system.add_eq(tgt_t[static_cast<std::size_t>(r)],
                  src_t[static_cast<std::size_t>(r)]);
  }
  if (level < levels) {
    system.add_lt(tgt_t[static_cast<std::size_t>(level)],
                  src_t[static_cast<std::size_t>(level)]);
  }
  return system;
}

LegalityResult check_dependence(const Dependence& dep,
                                const StmtSchedule& src_schedule,
                                const StmtSchedule& tgt_schedule) {
  const int levels = src_schedule.levels();
  for (int level = 0; level <= levels; ++level) {
    const ConstraintSystem violation =
        violation_system(dep, src_schedule, tgt_schedule, level);
    if (!violation.empty_rational()) {
      return {false, level};
    }
  }
  return {true, -1};
}

bool carried_at(const Dependence& dep, const StmtSchedule& src_schedule,
                const StmtSchedule& tgt_schedule, int level) {
  if (src_schedule.levels() != tgt_schedule.levels()) {
    throw std::invalid_argument("schedules must have equal level counts");
  }
  if (level < 0 || level >= src_schedule.levels()) {
    throw std::out_of_range("carried level out of range");
  }
  const auto src_t = composed_times(src_schedule, dep.src_coords);
  const auto tgt_t = composed_times(tgt_schedule, dep.tgt_coords);
  ConstraintSystem carried = dep.domain;
  for (int r = 0; r < level; ++r) {
    carried.add_eq(tgt_t[static_cast<std::size_t>(r)],
                   src_t[static_cast<std::size_t>(r)]);
  }
  carried.add_lt(src_t[static_cast<std::size_t>(level)],
                 tgt_t[static_cast<std::size_t>(level)]);
  return !carried.empty_rational();
}

}  // namespace rri::poly
