/// Fig. 10 ablation: the two inner-triangle memory maps the paper
/// compares — Option 1 (i2,j2 -> i2,j2) vs Option 2 (i2,j2 -> i2,j2-i2)
/// — plus the paper's default bounding-box layout (bbox_ftable.hpp),
/// all timed on the same layout-generic serial-permuted fill. Paper
/// finding: "Option-1 always performs better". Also reports the footprint
/// of the packed outer triangle (the Phase-II memory optimization, which
/// the product's FTable uses) against the bounding box.

#include "bench_common.hpp"
#include "bbox_ftable.hpp"

#include <type_traits>

#include "rri/core/bpmax_layout.hpp"

int main() {
  using namespace rri;
  bench::print_banner("Fig. 10 ablation - memory mapping schemes",
                      "same serial algorithm over three F-table layouts");

  const int m = harness::scaled_lengths({10})[0];
  const auto lengths = harness::scaled_lengths({48, 96, 144});
  const auto model = rna::ScoringModel::bpmax_default();
  const int reps = harness::bench_reps();

  harness::ReportTable table({"M x N", "bounding box", "packed opt-1",
                              "packed opt-2", "packed/bbox memory"});
  for (const int n : lengths) {
    const auto s1 = bench::bench_sequence(static_cast<std::size_t>(m), 1);
    const auto s2 = bench::bench_sequence(static_cast<std::size_t>(n), 2);
    const double flops =
        harness::bpmax_flops(m, n).total();

    auto time_layout = [&](auto table_tag) {
      using Table = typename decltype(table_tag)::type;
      double best = 0.0;
      for (int r = 0; r < reps; ++r) {
        const double secs = harness::time_call(
            [&] { core::bpmax_solve_layout<Table>(s1, s2, model); });
        if (r == 0 || secs < best) {
          best = secs;
        }
      }
      return flops / best / 1e9;
    };
    const double bbox =
        time_layout(std::type_identity<bench::BoundingBoxFTable>{});
    const double opt1 = time_layout(
        std::type_identity<core::PackedFTable<core::InnerMapOption1>>{});
    const double opt2 = time_layout(
        std::type_identity<core::PackedFTable<core::InnerMapOption2>>{});

    const bench::BoundingBoxFTable box(m, n);
    const core::PackedFTable<core::InnerMapOption1> packed(m, n);
    table.add_row({std::to_string(m) + "x" + std::to_string(n),
                   harness::fmt_double(bbox, 3),
                   harness::fmt_double(opt1, 3),
                   harness::fmt_double(opt2, 3),
                   harness::fmt_double(
                       static_cast<double>(packed.allocated()) /
                           static_cast<double>(box.allocated()) * 100.0,
                       0) + "%"});
  }
  bench::print_table("fig10_memory_layouts", table);
  std::printf(
      "\npaper: Option-1 always beats Option-2 (cross-row column\n"
      "alignment helps the k2 reduction); the packed outer triangle\n"
      "halves the allocation without touching the hot loops (unused\n"
      "bounding-box cells never move through the cache hierarchy, so\n"
      "bbox vs packed perf is close).\n");
  return 0;
}
