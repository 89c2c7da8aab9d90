/// Extension bench (paper §VI future work): tiling R1/R2 ("we also plan
/// to apply tiling on R1 and R2") — BpmaxOptions::r12_jblock blocks the
/// finalization sweep along j2. The other item, register-level tiling of
/// the double max-plus, was implemented, measured slower than the 32x4xN
/// tiled schedule at every probed shape, and retired (EXPERIMENTS.md,
/// "Ablations").

#include "bench_common.hpp"

int main() {
  using namespace rri;
  bench::print_banner("Extension - the paper's future-work optimizations",
                      "blocked R1/R2, measured");

  const int bm = harness::scaled_lengths({8})[0];
  const int bn = harness::scaled_lengths({192})[0];
  const auto s1 = bench::bench_sequence(static_cast<std::size_t>(bm), 1);
  const auto s2 = bench::bench_sequence(static_cast<std::size_t>(bn), 2);
  const auto model = rna::ScoringModel::bpmax_default();
  std::printf("R1/R2 j2-blocking on full BPMax %dx%d (R1/R2-heavy "
              "shape; GFLOPS):\n",
              bm, bn);
  harness::ReportTable r12_table({"r12 block", "GFLOPS"});
  for (const int jb : {0, 16, 32, 64, 128}) {
    core::BpmaxOptions opt;
    opt.variant = core::Variant::kHybridTiled;
    opt.r12_jblock = jb;
    r12_table.add_row(
        {jb == 0 ? "unblocked" : std::to_string(jb),
         harness::fmt_double(bench::bpmax_fill_gflops(s1, s2, model, opt),
                             3)});
  }
  bench::print_table("ext_future_work_r12", r12_table);
  std::printf(
      "\nBlocking preserves results bit-for-bit (tested); its payoff is\n"
      "footprint-dependent — it needs rows that overflow a cache level,\n"
      "the regime the paper hits at N ~ 2048 (16 MB per triangle row\n"
      "set).\n");
  return 0;
}
