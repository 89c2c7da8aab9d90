#ifndef RRI_CORE_SIMD_MAXPLUS_SIMD_HPP
#define RRI_CORE_SIMD_MAXPLUS_SIMD_HPP

/// \file maxplus_simd.hpp
/// Runtime-dispatched inner kernels for the double max-plus reduction —
/// the Θ(M³N³) hot path every BPMax variant spends its time in.
///
/// Three backends implement the same kernel contract:
///
///  * `kScalar` — the portable reference loop nests (plain C++ with
///    `#pragma omp simd` hints; what the repo shipped before this layer).
///  * `kAvx2`   — register-tiled AVX2 intrinsics: 4-row × 16-column
///    accumulator blocks held in ymm registers across the whole k2
///    reduction (unroll-and-jam over the i2/j2 triangle), vectorized max
///    along the contiguous j2 dimension, masked tails for the triangle
///    edges. Compiled only when the toolchain supports `-mavx2`
///    (RRI_SIMD_HAVE_AVX2) and selected only when CPUID reports AVX2.
///  * `kAvx512` — the same schedule widened to 512-bit registers: 4-row
///    × 32-column accumulator blocks (8 zmm), with the AVX2 backend's
///    arithmetic lane masks replaced by native `__mmask16` masked
///    loads/stores on every triangle edge. Compiled only when the
///    toolchain supports `-mavx512f` (RRI_SIMD_HAVE_AVX512) and selected
///    only when CPUID reports avx512f+avx512bw.
///
/// Backend selection happens once, lazily: the `RRI_SIMD` environment
/// variable (`scalar`, `avx2`, `avx512`, or `auto`, the default)
/// overrides the CPUID-based choice; tests force a backend
/// programmatically with `set_backend`. Every backend produces
/// bit-identical tables — the max-plus reduction is order-insensitive
/// and each candidate is one fp32 add — which the property harness
/// (tests/property_test.cpp) checks across the full variant × backend
/// matrix, including every supported backend pair.
///
/// The chosen backend is recorded in perf reports as the
/// `core.simd_backend` counter (0 = scalar, 1 = avx2, 2 = avx512); see
/// docs/kernels.md.

#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/semiring/logsumexp.hpp"

namespace rri::core::simd {

enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Stable lower_snake name ("scalar", "avx2", "avx512") for reports and
/// logs.
const char* backend_name(Backend b) noexcept;

/// True when `b` is both compiled in and supported by this CPU.
bool backend_available(Backend b) noexcept;

/// Every backend that is both compiled in and supported by this CPU, in
/// ascending preference order: scalar first (always present), the best
/// backend last. Tests and benches iterate this instead of hardcoding a
/// backend list, so a new backend is gated the day it lands.
std::vector<Backend> supported_backends();

/// The pipe-separated list of RRI_SIMD values the dispatcher accepts
/// ("scalar|avx2|avx512|auto"), built from the one backend table in
/// dispatch.cpp — error messages and CLI help stay in sync with the
/// compiled-in backends automatically.
const char* known_backend_list() noexcept;

/// The backend the dispatched kernels use right now. Resolved on first
/// call: an explicit `set_backend` wins, else the `RRI_SIMD` environment
/// variable, else the best available backend. An unavailable `RRI_SIMD`
/// request falls back to scalar with a one-time stderr warning.
Backend active_backend() noexcept;

/// Force a backend (tests, benches). Returns false — and changes
/// nothing — when the backend is not available on this host/build.
bool set_backend(Backend b) noexcept;

/// Drop any forced choice and re-resolve from RRI_SIMD / CPUID on the
/// next active_backend() call.
void reset_backend() noexcept;

/// The backend the dispatched kernels use for `algebra`. The tropical
/// kernels follow active_backend(); the log-sum-exp kernels have a
/// scalar implementation only today, so they report kScalar no matter
/// what the tropical path resolved to. New vector backends for the
/// log-domain algebra slot in here without touching any caller.
Backend active_backend(semiring::Algebra algebra) noexcept;

/// Record the resolved backend into the obs registry as the
/// `core.simd_backend` counter (set-semantics; no-op when obs is
/// disabled). Called by the fill entry points at solve granularity.
void record_backend_counter();

/// Per-algebra form: records `core.simd_backend` for the backend the
/// given algebra actually runs on, plus the `core.algebra` set-counter
/// (0 = tropical, 1 = logsumexp) so mixed-workload profiles attribute
/// both choices.
void record_backend_counter(semiring::Algebra algebra);

// ------------------------------------------------------------- kernels
//
// Shared contract (mirrors core::detail::maxplus_instance_*): `acc`,
// `a`, `b` are N×N row-major triangle blocks with rows unit-stride in
// j2; valid R0 points satisfy row <= k2 < j2 < n:
//
//   acc[i2][j2] max=  max_{k2 in [i2, j2)}  a[i2][k2] + b[k2+1][j2]
//
// The maxplus_* forms additionally fold the piggy-backed R3/R4 terms
// over the dense j2 >= i2 wedge:
//
//   acc[i2][j2] max=  max(a[i2][j2] + r3add, r4add + b[i2][j2])

/// Pure-R0 instance over rows [row_begin, row_end) (standalone double
/// max-plus problem; no R3/R4).
void r0_rows(float* acc, const float* a, const float* b, int n,
             int row_begin, int row_end) noexcept;

/// Pure-R0 instance, (i2, k2, j2) space chopped into TileShape3 blocks;
/// processes i2 tiles [tile_begin, tile_end) out of ceil(n / ti2).
void r0_tiled(float* acc, const float* a, const float* b, int n,
              TileShape3 tile, int tile_begin, int tile_end) noexcept;

/// Pure-R0 instance with the register-blocked schedule over all rows
/// (the paper's future-work second tiling level).
void r0_regblocked(float* acc, const float* a, const float* b,
                   int n) noexcept;

/// R0 + R3/R4 instance over rows [row_begin, row_end) (BPMax band
/// stage).
void maxplus_rows(float* acc, const float* a, const float* b, float r3add,
                  float r4add, int n, int row_begin, int row_end) noexcept;

/// R0 + R3/R4 instance, TileShape3-tiled; processes i2 tiles
/// [tile_begin, tile_end).
void maxplus_tiled(float* acc, const float* a, const float* b, float r3add,
                   float r4add, int n, TileShape3 tile, int tile_begin,
                   int tile_end) noexcept;

// ----------------------------------------------- log-sum-exp kernels
//
// The same contract with (max, +) replaced by (logaddexp, +) over
// doubles — the BPPart inside fill's hot path. Passing r3add = 0
// (the semiring one) and r4add = -inf (the semiring zero, annihilating
// under +) reduces the dense wedge to `acc[i2][j2] logaddexp=
// a[i2][j2]`. Dispatched through the same seam as the tropical kernels;
// only the scalar backend exists for this algebra today (see
// active_backend(Algebra)).

/// Pure-R0 log-sum-exp instance over rows [row_begin, row_end).
void lse_r0_rows(double* acc, const double* a, const double* b, int n,
                 int row_begin, int row_end) noexcept;

/// Pure-R0 log-sum-exp instance, TileShape3-tiled.
void lse_r0_tiled(double* acc, const double* a, const double* b, int n,
                  TileShape3 tile, int tile_begin, int tile_end) noexcept;

/// R0 + dense-wedge log-sum-exp instance over rows [row_begin, row_end).
void lse_maxplus_rows(double* acc, const double* a, const double* b,
                      double r3add, double r4add, int n, int row_begin,
                      int row_end) noexcept;

/// R0 + dense-wedge log-sum-exp instance, TileShape3-tiled.
void lse_maxplus_tiled(double* acc, const double* a, const double* b,
                       double r3add, double r4add, int n, TileShape3 tile,
                       int tile_begin, int tile_end) noexcept;

}  // namespace rri::core::simd

#endif  // RRI_CORE_SIMD_MAXPLUS_SIMD_HPP
