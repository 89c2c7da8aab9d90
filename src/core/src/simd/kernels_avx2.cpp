/// AVX2 row of the backend table: the generic kernel body compiled with
/// -mavx2 -mfma (per-source flags, src/core/CMakeLists.txt). Dispatch
/// selects it only when CPUID reports avx2 and fma.

#include "simd/kernels.hpp"

#include "simd/kernels_generic.hpp"

namespace rri::core::simd {

extern const KernelSet kAvx2Kernels = generic::tropical_kernel_set();

}  // namespace rri::core::simd
