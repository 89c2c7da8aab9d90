/// AVX-512 row of the backend table: the generic kernel body compiled
/// with -mavx512f -mavx512bw (per-source flags, src/core/CMakeLists.txt).
/// Dispatch selects it only when CPUID reports avx512f and avx512bw.

#include "simd/kernels.hpp"

#include "simd/kernels_generic.hpp"

namespace rri::core::simd {

extern const KernelSet kAvx512Kernels = generic::tropical_kernel_set();

}  // namespace rri::core::simd
