/// Fig. 13: double max-plus performance comparison — GFLOPS of every
/// schedule/parallelization variant of the standalone Θ(M³N³) kernel as
/// sequence length grows. Paper shape: coarse-grain collapses (DRAM
/// traffic), permuted/fine improve on the original, tiling wins and
/// reaches 117 GFLOPS (~97% of the micro-benchmark target).
///
/// The sweep runs once per available rri::core::simd backend (forced via
/// set_backend) and ends with the host-independent dispatch invariant:
/// simd_auto_over_scalar_max, the worst row's best-variant time on the
/// backend `auto` resolves to over its time on `scalar` (CI warns above
/// 1.03).

#include "bench_common.hpp"

int main() {
  using namespace rri;
  bench::print_banner("Fig. 13 - double max-plus performance",
                      "standalone Eq. 4 kernel, GFLOPS per variant, one "
                      "sweep per SIMD backend");

  // The paper benchmarks short-strand x long-strand instances (its
  // Fig. 18 instance is 16 x 2500): fix M small and sweep the inner N.
  const int m = harness::scaled_lengths({16})[0];
  const auto lengths = harness::scaled_lengths({64, 128, 192, 256});

  // One sweep per supported backend; new ISAs join it automatically
  // when dispatch learns about them.
  bench::backend_sweep(
      "fig13_dmp_perf", m, lengths, core::all_dmp_variants(),
      core::DmpVariant::kBaseline, core::dmp_variant_name,
      [&](int n, core::DmpVariant v) {
        return bench::dmp_gflops(m, n, v, core::TileShape3{32, 4, 0});
      });

  std::printf(
      "\npaper (6 threads, lengths to 2500): tiled best at 117 GFLOPS;\n"
      "coarse-grain performs very poorly at scale; loop permutation alone\n"
      "already beats the original order. Expect the same ordering here\n"
      "(absolute numbers scale with this host's cores/SIMD).\n");
  return 0;
}
