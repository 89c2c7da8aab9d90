#ifndef RRI_CORE_SRC_SIMD_KERNELS_HPP
#define RRI_CORE_SRC_SIMD_KERNELS_HPP

/// \file kernels.hpp
/// Private backend entry points behind rri::core::simd dispatch. Every
/// backend is the one tropical body of kernels_generic.hpp compiled for
/// its ISA in its own TU; each TU exports its kernels as one KernelSet,
/// which the dispatch table row for that backend points at. A set exists
/// only when the build compiled its TU (RRI_SIMD_HAVE_AVX2 /
/// RRI_SIMD_HAVE_AVX512).

#include "rri/core/bpmax.hpp"

#ifndef RRI_SIMD_HAVE_AVX2
#define RRI_SIMD_HAVE_AVX2 0
#endif

#ifndef RRI_SIMD_HAVE_AVX512
#define RRI_SIMD_HAVE_AVX512 0
#endif

namespace rri::core::simd {

/// The tropical (MaxPlus<float>) kernels of one backend; the contracts
/// are those of the same-named functions in maxplus_simd.hpp.
struct KernelSet {
  void (*r0_rows)(float* acc, const float* a, const float* b, int n,
                  int row_begin, int row_end) noexcept;
  void (*r0_tiled)(float* acc, const float* a, const float* b, int n,
                   TileShape3 tile, int tile_begin, int tile_end) noexcept;
  void (*r0_regblocked)(float* acc, const float* a, const float* b,
                        int n) noexcept;
  void (*maxplus_rows)(float* acc, const float* a, const float* b,
                       float r3add, float r4add, int n, int row_begin,
                       int row_end) noexcept;
  void (*maxplus_tiled)(float* acc, const float* a, const float* b,
                        float r3add, float r4add, int n, TileShape3 tile,
                        int tile_begin, int tile_end) noexcept;
};

// One set per backend TU: kernels_scalar.cpp (base flags),
// kernels_avx2.cpp (-mavx2 -mfma), kernels_avx512.cpp (-mavx512f
// -mavx512bw).
extern const KernelSet kScalarKernels;
#if RRI_SIMD_HAVE_AVX2
extern const KernelSet kAvx2Kernels;
#endif
#if RRI_SIMD_HAVE_AVX512
extern const KernelSet kAvx512Kernels;
#endif

}  // namespace rri::core::simd

namespace rri::core::simd::scalar {

// Log-sum-exp (double) instantiations of the same kernel shapes. Only
// the portable row carries these today; the dispatch layer routes every
// log-sum-exp call here regardless of the tropical backend choice.
void lse_r0_rows(double* acc, const double* a, const double* b, int n,
                 int row_begin, int row_end) noexcept;
void lse_r0_tiled(double* acc, const double* a, const double* b, int n,
                  TileShape3 tile, int tile_begin, int tile_end) noexcept;
void lse_maxplus_rows(double* acc, const double* a, const double* b,
                      double r3add, double r4add, int n, int row_begin,
                      int row_end) noexcept;
void lse_maxplus_tiled(double* acc, const double* a, const double* b,
                       double r3add, double r4add, int n, TileShape3 tile,
                       int tile_begin, int tile_end) noexcept;

}  // namespace rri::core::simd::scalar

#endif  // RRI_CORE_SRC_SIMD_KERNELS_HPP
