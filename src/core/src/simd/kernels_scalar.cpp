/// Portable row of the backend table: the generic kernel body compiled
/// with the base flags only (SSE2 on x86-64, or whatever -march the build
/// sets). Besides the tropical set it carries the lse_* entry points, the
/// LogSumExp<double> instantiations of the same bodies (the BPPart inside
/// fill and the log-domain dmp mini-app), which no other row has yet.

#include "simd/kernels.hpp"

#include "simd/kernels_generic.hpp"

namespace rri::core::simd {

extern const KernelSet kScalarKernels = generic::tropical_kernel_set();

}  // namespace rri::core::simd

namespace rri::core::simd::scalar {

using LogSum = semiring::LogSumExp<double>;

void lse_r0_rows(double* acc, const double* a, const double* b, int n,
                 int row_begin, int row_end) noexcept {
  generic::r0_rows<LogSum>(acc, a, b, n, row_begin, row_end);
}

void lse_r0_tiled(double* acc, const double* a, const double* b, int n,
                  TileShape3 tile, int tile_begin, int tile_end) noexcept {
  generic::r0_tiled<LogSum>(acc, a, b, n, tile, tile_begin, tile_end);
}

void lse_maxplus_rows(double* acc, const double* a, const double* b,
                      double r3add, double r4add, int n, int row_begin,
                      int row_end) noexcept {
  generic::maxplus_rows<LogSum>(acc, a, b, r3add, r4add, n, row_begin,
                                row_end);
}

void lse_maxplus_tiled(double* acc, const double* a, const double* b,
                       double r3add, double r4add, int n, TileShape3 tile,
                       int tile_begin, int tile_end) noexcept {
  generic::maxplus_tiled<LogSum>(acc, a, b, r3add, r4add, n, tile,
                                 tile_begin, tile_end);
}

}  // namespace rri::core::simd::scalar
