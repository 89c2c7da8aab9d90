/// Runtime backend selection for the rri::core::simd kernels.
///
/// Resolution order: programmatic set_backend (tests, benches) > the
/// RRI_SIMD environment variable (scalar | avx2 | avx512 | auto) > the
/// best backend both compiled in and reported by CPUID. The choice is
/// cached in one atomic; every dispatched kernel call is a relaxed load
/// plus an indirect call through the chosen row's KernelSet.

#include "rri/core/simd/maxplus_simd.hpp"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "rri/obs/obs.hpp"
#include "simd/kernels.hpp"

namespace rri::core::simd {

namespace {

constexpr int kUnresolved = -1;

/// Backend as int, or kUnresolved before first use.
std::atomic<int> g_backend{kUnresolved};

bool cpu_has_avx2() noexcept {
#if RRI_SIMD_HAVE_AVX2 && (defined(__x86_64__) || defined(__i386__))
  // The row is compiled with -mavx2 -mfma, so the CPU must have both.
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

bool cpu_has_avx512() noexcept {
#if RRI_SIMD_HAVE_AVX512 && (defined(__x86_64__) || defined(__i386__))
  // The row is compiled with -mavx512f -mavx512bw; BW also keeps the
  // first-gen Phi parts (F+CD only) off this path — every server core
  // since Skylake-SP reports both.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512bw") != 0;
#else
  return false;
#endif
}

bool cpu_always() noexcept { return true; }

/// The one backend table, indexed by Backend value, in ascending
/// preference order (scalar first, best last). Each row carries its
/// RRI_SIMD spelling, its kernel set (null when the build did not compile
/// that ISA's TU) and its CPUID gate. backend_name, backend_available,
/// supported_backends, best_available, the RRI_SIMD parser (including
/// its error messages) and every kernel call are derived from this
/// table, so adding an ISA is one wrapper TU plus one row here.
struct BackendEntry {
  Backend backend;
  const char* name;
  const KernelSet* kernels;
  bool (*cpu_supports)() noexcept;
};

constexpr BackendEntry kBackendTable[] = {
    {Backend::kScalar, "scalar", &kScalarKernels, cpu_always},
#if RRI_SIMD_HAVE_AVX2
    {Backend::kAvx2, "avx2", &kAvx2Kernels, cpu_has_avx2},
#else
    {Backend::kAvx2, "avx2", nullptr, cpu_has_avx2},
#endif
#if RRI_SIMD_HAVE_AVX512
    {Backend::kAvx512, "avx512", &kAvx512Kernels, cpu_has_avx512},
#else
    {Backend::kAvx512, "avx512", nullptr, cpu_has_avx512},
#endif
};

constexpr bool table_indexed_by_backend() {
  int i = 0;
  for (const BackendEntry& e : kBackendTable) {
    if (static_cast<int>(e.backend) != i++) {
      return false;
    }
  }
  return true;
}
static_assert(table_indexed_by_backend());

const BackendEntry* find_entry(Backend b) noexcept {
  const auto i = static_cast<std::size_t>(b);
  return i < std::size(kBackendTable) ? &kBackendTable[i] : nullptr;
}

Backend best_available() noexcept {
  for (auto it = std::rbegin(kBackendTable); it != std::rend(kBackendTable);
       ++it) {
    if (backend_available(it->backend)) {
      return it->backend;
    }
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
  const BackendEntry* e = find_entry(b);
  return e != nullptr ? e->name : "unknown";
}

bool backend_available(Backend b) noexcept {
  const BackendEntry* e = find_entry(b);
  return e != nullptr && e->kernels != nullptr && e->cpu_supports();
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

namespace {

/// The kernel set of the active backend; active_backend() only ever
/// resolves to an available row, whose kernels are compiled in.
const KernelSet& active_kernels() noexcept {
  return *kBackendTable[static_cast<int>(active_backend())].kernels;
}

}  // namespace

void r0_rows(float* acc, const float* a, const float* b, int n,
             int row_begin, int row_end) noexcept {
  active_kernels().r0_rows(acc, a, b, n, row_begin, row_end);
}

void r0_tiled(float* acc, const float* a, const float* b, int n,
              TileShape3 tile, int tile_begin, int tile_end) noexcept {
  active_kernels().r0_tiled(acc, a, b, n, tile, tile_begin, tile_end);
}

void r0_regblocked(float* acc, const float* a, const float* b,
                   int n) noexcept {
  active_kernels().r0_regblocked(acc, a, b, n);
}

void maxplus_rows(float* acc, const float* a, const float* b, float r3add,
                  float r4add, int n, int row_begin, int row_end) noexcept {
  active_kernels().maxplus_rows(acc, a, b, r3add, r4add, n, row_begin,
                                row_end);
}

void maxplus_tiled(float* acc, const float* a, const float* b, float r3add,
                   float r4add, int n, TileShape3 tile, int tile_begin,
                   int tile_end) noexcept {
  active_kernels().maxplus_tiled(acc, a, b, r3add, r4add, n, tile,
                                 tile_begin, tile_end);
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
