/// Tables II-IV (+V): the full-BPMax schedule sets. Prints the
/// machine-checked legality verdict of each published table and of the
/// orders the threaded presets execute, and times the kernel variant that
/// realizes each (Table V's subsystem split is the tiled realization of
/// the executed hybrid schedule).

#include "bench_common.hpp"

#include <map>

#include "rri/poly/bpmax_catalog.hpp"

int main() {
  using namespace rri;
  bench::print_banner("Tables II-V - BPMax schedules",
                      "legality (13 dependences) + measured realization");

  const int m = harness::scaled_lengths({12})[0];
  const int n = harness::scaled_lengths({96})[0];
  const auto s1 = bench::bench_sequence(static_cast<std::size_t>(m), 1);
  const auto s2 = bench::bench_sequence(static_cast<std::size_t>(n), 2);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto deps = poly::bpmax_dependences();

  // Each set's realizing kernel and the label of its row. The paper's
  // Tables II-IV are the reference rows; the *_executed sets are the
  // orders the fine and hybrid/hybrid_tiled presets actually run.
  struct Row {
    const char* label;
    core::Variant variant;
  };
  const std::map<std::string, std::vector<Row>> rows = {
      {"original", {{"original (base)", core::Variant::kBaseline}}},
      {"fine", {{"fine (Table II)", core::Variant::kFine}}},
      {"coarse", {{"coarse (Table III)", core::Variant::kCoarse}}},
      {"hybrid", {{"hybrid (Table IV)", core::Variant::kHybrid}}},
      {"fine_executed", {{"fine as executed", core::Variant::kFine}}},
      {"hybrid_executed",
       {{"hybrid as executed", core::Variant::kHybrid},
        {"hybrid+tiled (Table V)", core::Variant::kHybridTiled}}},
  };

  harness::ReportTable table(
      {"schedule (paper table)", "deps checked", "legal", "kernel",
       "GFLOPS"});
  for (const auto& set : poly::bpmax_schedule_catalog()) {
    const auto verdicts = poly::verify_schedule_set(set, deps);
    for (const Row& row : rows.at(set.name)) {
      const double g =
          bench::bpmax_fill_gflops(s1, s2, model, {row.variant, {}, 0});
      table.add_row({row.label, std::to_string(verdicts.size()),
                     poly::all_legal(verdicts) ? "yes" : "NO",
                     core::variant_name(row.variant),
                     harness::fmt_double(g, 3)});
    }
  }
  bench::print_table("tab2_4_bpmax_schedules", table);
  std::printf(
      "\nthe four published schedules and the two executed ones are\n"
      "certified against all 13 dependences; the executed ones also with\n"
      "their parallel levels, band (i1, i2-block) and finalize i1. Paper\n"
      "ranking to check: hybrid_tiled > hybrid > fine/coarse > original.\n");
  return 0;
}
