/// Fig. 15: BPMax performance comparison — GFLOPS of the full program
/// under every variant as sequence length grows. Paper shape: coarse and
/// fine are worst, hybrid better, hybrid+tiled best (~76 GFLOPS at
/// moderate lengths, ~60% below the isolated double max-plus because the
/// Θ(M²N³) R1/R2 reductions drag the finalization).
///
/// The sweep runs once per supported rri::core::simd backend and ends
/// with the same simd_auto_over_scalar_max line as fig13 (CI warns above
/// 1.03).

#include "bench_common.hpp"

int main() {
  using namespace rri;
  bench::print_banner("Fig. 15 - BPMax performance",
                      "full recurrence, GFLOPS per variant");

  // Short outer strand, swept inner strand, as in the paper's testbed
  // runs (it calls N the "inner sequence", up to 2048).
  const int m = harness::scaled_lengths({12})[0];
  const auto lengths = harness::scaled_lengths({48, 96, 144, 192});
  const auto model = rna::ScoringModel::bpmax_default();
  bench::backend_sweep(
      "fig15_bpmax_perf", m, lengths, core::all_variants(),
      core::Variant::kBaseline, core::variant_name,
      [&](int n, core::Variant v) {
        const auto s1 = bench::bench_sequence(static_cast<std::size_t>(m), 1);
        const auto s2 = bench::bench_sequence(static_cast<std::size_t>(n), 2);
        return bench::bpmax_fill_gflops(s1, s2, model, {v, {}, 0});
      });
  std::printf(
      "\npaper (6 threads): hybrid_tiled best (~76 GFLOPS, 100x over the\n"
      "original at long lengths); coarse/fine worst among the optimized\n"
      "variants; every optimized variant beats the original order.\n");
  return 0;
}
