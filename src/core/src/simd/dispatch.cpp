/// Runtime backend selection for the rri::core::simd kernels.
///
/// Resolution order: programmatic set_backend (tests, benches) > the
/// RRI_SIMD environment variable (scalar | avx2 | avx512 | auto) > the
/// best backend both compiled in and reported by CPUID. The choice is
/// cached in one atomic; every dispatched kernel call is a relaxed load
/// plus an indirect-free switch.

#include "rri/core/simd/maxplus_simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "rri/obs/obs.hpp"
#include "simd/kernels.hpp"

namespace rri::core::simd {

namespace {

constexpr int kUnresolved = -1;

/// Backend as int, or kUnresolved before first use.
std::atomic<int> g_backend{kUnresolved};

/// The one backend table: enum value + RRI_SIMD spelling, ascending
/// preference order (scalar first, best last). backend_name,
/// backend_available, supported_backends, best_available, and the
/// RRI_SIMD parser (including its error messages) are all derived from
/// this table, so adding a backend here is the only registration step.
struct BackendEntry {
  Backend backend;
  const char* name;
};

constexpr BackendEntry kBackendTable[] = {
    {Backend::kScalar, "scalar"},
    {Backend::kAvx2, "avx2"},
    {Backend::kAvx512, "avx512"},
};

bool cpu_has_avx2() noexcept {
#if RRI_SIMD_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() noexcept {
#if RRI_SIMD_HAVE_AVX512 && (defined(__x86_64__) || defined(__i386__))
  // Foundation is all the float kernels need; BW rides along to keep
  // the first-gen Phi parts (F+CD only, different mask latencies) off
  // this path — every server core since Skylake-SP reports both.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

Backend best_available() noexcept {
  if (backend_available(Backend::kAvx512)) {
    return Backend::kAvx512;
  }
  if (backend_available(Backend::kAvx2)) {
    return Backend::kAvx2;
  }
  return Backend::kScalar;
}

/// Resolve from RRI_SIMD / CPUID. Unknown or unavailable requests fall
/// back to the best available backend with a one-time stderr warning so
/// a mistyped or over-ambitious override does not silently change what
/// was measured.
Backend resolve_from_env() noexcept {
  const char* env = std::getenv("RRI_SIMD");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "auto") == 0) {
    return best_available();
  }
  for (const BackendEntry& e : kBackendTable) {
    if (std::strcmp(env, e.name) != 0) {
      continue;
    }
    if (backend_available(e.backend)) {
      return e.backend;
    }
    const Backend fallback = best_available();
    std::fprintf(stderr,
                 "rri::core::simd: RRI_SIMD=%s requested but %s is not "
                 "available on this host/build; using %s\n",
                 e.name, e.name, backend_name(fallback));
    return fallback;
  }
  std::fprintf(stderr,
               "rri::core::simd: unknown RRI_SIMD value '%s' (expected "
               "%s); using auto\n",
               env, known_backend_list());
  return best_available();
}

}  // namespace

const char* backend_name(Backend b) noexcept {
  for (const BackendEntry& e : kBackendTable) {
    if (e.backend == b) {
      return e.name;
    }
  }
  return "unknown";
}

bool backend_available(Backend b) noexcept {
  switch (b) {
    case Backend::kScalar: return true;
    case Backend::kAvx2: return cpu_has_avx2();
    case Backend::kAvx512: return cpu_has_avx512();
  }
  return false;
}

std::vector<Backend> supported_backends() {
  std::vector<Backend> out;
  for (const BackendEntry& e : kBackendTable) {
    if (backend_available(e.backend)) {
      out.push_back(e.backend);
    }
  }
  return out;
}

const char* known_backend_list() noexcept {
  // Formatted once, lazily (thread-safe static init); the buffer is
  // sized for the table with room to grow.
  static const char* const list = [] {
    static char buf[128];
    std::size_t off = 0;
    for (const BackendEntry& e : kBackendTable) {
      off += static_cast<std::size_t>(
          std::snprintf(buf + off, sizeof(buf) - off, "%s|", e.name));
    }
    std::snprintf(buf + off, sizeof(buf) - off, "auto");
    return buf;
  }();
  return list;
}

Backend active_backend() noexcept {
  int cur = g_backend.load(std::memory_order_relaxed);
  if (cur == kUnresolved) {
    const Backend resolved = resolve_from_env();
    // First resolver wins; a concurrent set_backend is not overwritten.
    if (g_backend.compare_exchange_strong(cur, static_cast<int>(resolved),
                                          std::memory_order_relaxed)) {
      return resolved;
    }
  }
  return static_cast<Backend>(cur);
}

bool set_backend(Backend b) noexcept {
  if (!backend_available(b)) {
    return false;
  }
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

void reset_backend() noexcept {
  g_backend.store(kUnresolved, std::memory_order_relaxed);
}

Backend active_backend(semiring::Algebra algebra) noexcept {
  // The log-sum-exp kernels are scalar-only today; the tropical path
  // keeps its resolved choice. A vectorized log-domain backend would be
  // gated here (and nowhere else).
  if (algebra == semiring::Algebra::kLogSumExp) {
    return Backend::kScalar;
  }
  return active_backend();
}

void record_backend_counter() {
  obs::set_counter("core.simd_backend",
                   static_cast<double>(active_backend()));
}

void record_backend_counter(semiring::Algebra algebra) {
  obs::set_counter("core.simd_backend",
                   static_cast<double>(active_backend(algebra)));
  obs::set_counter("core.algebra", static_cast<double>(algebra));
}

// ------------------------------------------------------------- kernels

void r0_rows(float* acc, const float* a, const float* b, int n,
             int row_begin, int row_end) noexcept {
  switch (active_backend()) {
#if RRI_SIMD_HAVE_AVX512
    case Backend::kAvx512:
      avx512::r0_rows(acc, a, b, n, row_begin, row_end);
      return;
#endif
#if RRI_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      avx2::r0_rows(acc, a, b, n, row_begin, row_end);
      return;
#endif
    default:
      break;
  }
  scalar::r0_rows(acc, a, b, n, row_begin, row_end);
}

void r0_tiled(float* acc, const float* a, const float* b, int n,
              TileShape3 tile, int tile_begin, int tile_end) noexcept {
  switch (active_backend()) {
#if RRI_SIMD_HAVE_AVX512
    case Backend::kAvx512:
      avx512::r0_tiled(acc, a, b, n, tile, tile_begin, tile_end);
      return;
#endif
#if RRI_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      avx2::r0_tiled(acc, a, b, n, tile, tile_begin, tile_end);
      return;
#endif
    default:
      break;
  }
  scalar::r0_tiled(acc, a, b, n, tile, tile_begin, tile_end);
}

void r0_regblocked(float* acc, const float* a, const float* b,
                   int n) noexcept {
  switch (active_backend()) {
#if RRI_SIMD_HAVE_AVX512
    case Backend::kAvx512:
      avx512::r0_regblocked(acc, a, b, n);
      return;
#endif
#if RRI_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      avx2::r0_regblocked(acc, a, b, n);
      return;
#endif
    default:
      break;
  }
  scalar::r0_regblocked(acc, a, b, n);
}

void maxplus_rows(float* acc, const float* a, const float* b, float r3add,
                  float r4add, int n, int row_begin, int row_end) noexcept {
  switch (active_backend()) {
#if RRI_SIMD_HAVE_AVX512
    case Backend::kAvx512:
      avx512::maxplus_rows(acc, a, b, r3add, r4add, n, row_begin, row_end);
      return;
#endif
#if RRI_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      avx2::maxplus_rows(acc, a, b, r3add, r4add, n, row_begin, row_end);
      return;
#endif
    default:
      break;
  }
  scalar::maxplus_rows(acc, a, b, r3add, r4add, n, row_begin, row_end);
}

void maxplus_tiled(float* acc, const float* a, const float* b, float r3add,
                   float r4add, int n, TileShape3 tile, int tile_begin,
                   int tile_end) noexcept {
  switch (active_backend()) {
#if RRI_SIMD_HAVE_AVX512
    case Backend::kAvx512:
      avx512::maxplus_tiled(acc, a, b, r3add, r4add, n, tile, tile_begin,
                            tile_end);
      return;
#endif
#if RRI_SIMD_HAVE_AVX2
    case Backend::kAvx2:
      avx2::maxplus_tiled(acc, a, b, r3add, r4add, n, tile, tile_begin,
                          tile_end);
      return;
#endif
    default:
      break;
  }
  scalar::maxplus_tiled(acc, a, b, r3add, r4add, n, tile, tile_begin,
                        tile_end);
}

// Log-sum-exp kernels: active_backend(kLogSumExp) is always kScalar for
// now, so these route straight to the scalar backend. The indirection
// stays so a future vector backend changes dispatch, not callers.

void lse_r0_rows(double* acc, const double* a, const double* b, int n,
                 int row_begin, int row_end) noexcept {
  scalar::lse_r0_rows(acc, a, b, n, row_begin, row_end);
}

void lse_r0_tiled(double* acc, const double* a, const double* b, int n,
                  TileShape3 tile, int tile_begin, int tile_end) noexcept {
  scalar::lse_r0_tiled(acc, a, b, n, tile, tile_begin, tile_end);
}

void lse_maxplus_rows(double* acc, const double* a, const double* b,
                      double r3add, double r4add, int n, int row_begin,
                      int row_end) noexcept {
  scalar::lse_maxplus_rows(acc, a, b, r3add, r4add, n, row_begin, row_end);
}

void lse_maxplus_tiled(double* acc, const double* a, const double* b,
                       double r3add, double r4add, int n, TileShape3 tile,
                       int tile_begin, int tile_end) noexcept {
  scalar::lse_maxplus_tiled(acc, a, b, r3add, r4add, n, tile, tile_begin,
                            tile_end);
}

}  // namespace rri::core::simd
