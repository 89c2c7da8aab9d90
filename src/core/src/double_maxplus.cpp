#include "rri/core/double_maxplus.hpp"

#include <algorithm>
#include <limits>

#include "rri/core/detail/band_items.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/harness/flops.hpp"
#include "rri/obs/obs.hpp"
#include "rri/semiring/logsumexp.hpp"

namespace rri::core {

const char* dmp_variant_name(DmpVariant v) noexcept {
  switch (v) {
    case DmpVariant::kBaseline: return "baseline";
    case DmpVariant::kPermuted: return "permuted";
    case DmpVariant::kCoarse: return "coarse";
    case DmpVariant::kFine: return "fine";
    case DmpVariant::kTiled: return "tiled";
  }
  return "unknown";
}

const std::vector<DmpVariant>& all_dmp_variants() {
  static const std::vector<DmpVariant> variants = {
      DmpVariant::kBaseline, DmpVariant::kPermuted, DmpVariant::kCoarse,
      DmpVariant::kFine,     DmpVariant::kTiled,
  };
  return variants;
}

namespace {

/// splitmix64 finalizer: decorrelates the packed cell coordinates.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool is_input_cell(int i1, int j1, int i2, int j2) {
  return j1 == i1 || j2 == i2;
}

/// Write the input values of triangle (i1, j1): its d2 == 0 diagonal, or
/// every cell when d1 == 0.
template <typename T>
void write_inputs(BasicFTable<T>& f, std::uint64_t seed, int i1, int j1) {
  const int n = f.n();
  for (int i2 = 0; i2 < n; ++i2) {
    for (int j2 = i2; j2 < (i1 == j1 ? n : i2 + 1); ++j2) {
      f.at(i1, j1, i2, j2) =
          static_cast<T>(dmp_input_value(seed, i1, j1, i2, j2));
    }
  }
}

/// The dispatched pure-R0 kernels one algebra's driver runs.
template <typename T>
struct DmpKernels {
  void (*rows)(T*, const T*, const T*, int, int, int) noexcept;
  void (*tiled)(T*, const T*, const T*, int, TileShape3, int, int) noexcept;
  const char* span;  ///< trace span name of one band work item
};

/// Fill every non-baseline variant diagonal by diagonal. kCoarse threads
/// own the diagonal's triangles; kFine bands one triangle at a time and
/// kTiled the whole diagonal, as row-block work items that each sweep
/// every k1 split (detail/band_items.hpp); the serial forms walk the
/// triangles in order. A triangle's inputs are written after its
/// accumulation: nothing in the triangle reads them meanwhile, so
/// overwrite order is irrelevant.
template <typename T>
void fill_by_diagonals(BasicFTable<T>& f, std::uint64_t seed, DmpVariant v,
                       TileShape3 tile, const DmpKernels<T>& kernels) {
  const int m = f.m();
  const int n = f.n();
  const auto serial = [&](int i1, int j1) {
    RRI_OBS_PHASE(obs::Phase::kDmpBand);
    for (int k1 = i1; k1 < j1; ++k1) {
      kernels.rows(f.block(i1, j1), f.block(i1, k1), f.block(k1 + 1, j1), n,
                   0, n);
    }
    write_inputs(f, seed, i1, j1);
  };
  const auto band = [&](int d1, int first_i1, int count) {
    {
      RRI_OBS_PHASE(obs::Phase::kDmpBand);
      detail::run_band(
          n, d1, d1, first_i1, count, tile, kernels.span,
          [&](int i1, int j1, int k1, TileShape3 t, int first, int last) {
            T* acc = f.block(i1, j1);
            const T* a = f.block(i1, k1);
            const T* b = f.block(k1 + 1, j1);
            if (v == DmpVariant::kTiled) {
              kernels.tiled(acc, a, b, n, t, first, last);
            } else {
              kernels.rows(acc, a, b, n, first * t.ti2,
                           std::min(last * t.ti2, n));
            }
          });
    }
    for (int i1 = first_i1; i1 < first_i1 + count; ++i1) {
      write_inputs(f, seed, i1, i1 + d1);
    }
  };
  for (int d1 = 0; d1 < m; ++d1) {
    if (v == DmpVariant::kCoarse) {
#pragma omp parallel for schedule(dynamic)
      for (int i1 = 0; i1 < m - d1; ++i1) {
        serial(i1, i1 + d1);
      }
    } else if (v == DmpVariant::kTiled) {
      band(d1, 0, m - d1);
    } else {
      for (int i1 = 0; i1 + d1 < m; ++i1) {
        if (v == DmpVariant::kFine) {
          band(d1, i1, 1);
        } else {
          serial(i1, i1 + d1);
        }
      }
    }
  }
}

/// The original program order: both diagonal loops outermost, per-cell
/// scalar reductions with k2 innermost.
void fill_baseline_order(FTable& f, std::uint64_t seed) {
  const int m = f.m();
  const int n = f.n();
  for (int i1 = 0; i1 < m; ++i1) {
    write_inputs(f, seed, i1, i1);
  }
  for (int d1 = 1; d1 < m; ++d1) {
    for (int i1 = 0; i1 + d1 < m; ++i1) {
      write_inputs(f, seed, i1, i1 + d1);
    }
    for (int d2 = 1; d2 < n; ++d2) {
      for (int i1 = 0; i1 + d1 < m; ++i1) {
        const int j1 = i1 + d1;
        for (int i2 = 0; i2 + d2 < n; ++i2) {
          const int j2 = i2 + d2;
          float v = -std::numeric_limits<float>::infinity();
          for (int k1 = i1; k1 < j1; ++k1) {
            for (int k2 = i2; k2 < j2; ++k2) {
              v = std::max(v, f.at(i1, k1, i2, k2) +
                                  f.at(k1 + 1, j1, k2 + 1, j2));
            }
          }
          f.at(i1, j1, i2, j2) = v;
        }
      }
    }
  }
}

}  // namespace

float dmp_input_value(std::uint64_t seed, int i1, int j1, int i2, int j2) {
  std::uint64_t key = seed;
  key = mix(key ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(i1)));
  key = mix(key ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(j1)));
  key = mix(key ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(i2)));
  key = mix(key ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(j2)));
  // 24-bit mantissa-exact values in [0, 4): sums of a few stay exact in
  // fp32, so variant comparisons can demand bit equality.
  const auto bits = static_cast<std::uint32_t>(key >> 40) & 0xFFFFFu;
  return static_cast<float>(bits) * (4.0f / 1048576.0f);
}

FTable solve_double_maxplus(int m, int n, std::uint64_t seed, DmpVariant v,
                            TileShape3 tile) {
  RRI_OBS_PHASE(obs::Phase::kFill);
  simd::record_backend_counter();
#if RRI_OBS_ENABLED
  if (obs::enabled()) {
    // The standalone problem is pure R0; the baseline order has no
    // separable band stage, so it books its flops to the fill itself.
    const double flops = harness::double_maxplus_flops(m, n);
    const obs::Phase target = (v == DmpVariant::kBaseline)
                                  ? obs::Phase::kFill
                                  : obs::Phase::kDmpBand;
    obs::add_flops(target, flops);
    obs::add_bytes(target, 6.0 * flops);
  }
#endif
  FTable f(m, n);
  if (v == DmpVariant::kBaseline) {
    fill_baseline_order(f, seed);
    return f;
  }
  fill_by_diagonals(f, seed, v, tile,
                    DmpKernels<float>{simd::r0_rows, simd::r0_tiled,
                                      "dmp_band.omp"});
  return f;
}

float dmp_reference_cell(int m, int n, std::uint64_t seed, int i1, int j1,
                         int i2, int j2) {
  (void)m;
  (void)n;
  if (is_input_cell(i1, j1, i2, j2)) {
    return dmp_input_value(seed, i1, j1, i2, j2);
  }
  float v = -std::numeric_limits<float>::infinity();
  for (int k1 = i1; k1 < j1; ++k1) {
    for (int k2 = i2; k2 < j2; ++k2) {
      v = std::max(v, dmp_reference_cell(m, n, seed, i1, k1, i2, k2) +
                          dmp_reference_cell(m, n, seed, k1 + 1, j1, k2 + 1, j2));
    }
  }
  return v;
}

// ------------------------------------------------- log-sum-exp twin

namespace {

using LogSum = semiring::LogSumExp<double>;

void fill_baseline_order_lse(ZTable& f, std::uint64_t seed) {
  const int m = f.m();
  const int n = f.n();
  for (int i1 = 0; i1 < m; ++i1) {
    write_inputs(f, seed, i1, i1);
  }
  for (int d1 = 1; d1 < m; ++d1) {
    for (int i1 = 0; i1 + d1 < m; ++i1) {
      write_inputs(f, seed, i1, i1 + d1);
    }
    for (int d2 = 1; d2 < n; ++d2) {
      for (int i1 = 0; i1 + d1 < m; ++i1) {
        const int j1 = i1 + d1;
        for (int i2 = 0; i2 + d2 < n; ++i2) {
          const int j2 = i2 + d2;
          double v = -std::numeric_limits<double>::infinity();
          for (int k1 = i1; k1 < j1; ++k1) {
            for (int k2 = i2; k2 < j2; ++k2) {
              v = LogSum::plus(v, f.at(i1, k1, i2, k2) +
                                      f.at(k1 + 1, j1, k2 + 1, j2));
            }
          }
          f.at(i1, j1, i2, j2) = v;
        }
      }
    }
  }
}

}  // namespace

ZTable solve_double_lse(int m, int n, std::uint64_t seed, DmpVariant v,
                        TileShape3 tile) {
  RRI_OBS_PHASE(obs::Phase::kFill);
  simd::record_backend_counter(semiring::Algebra::kLogSumExp);
#if RRI_OBS_ENABLED
  if (obs::enabled()) {
    const double flops = harness::double_maxplus_flops(m, n);
    const obs::Phase target = (v == DmpVariant::kBaseline)
                                  ? obs::Phase::kFill
                                  : obs::Phase::kDmpBand;
    obs::add_flops(target, flops);
    // fp64 tables: the AI = 1/6 traffic model doubles to 12 B per pair.
    obs::add_bytes(target, 12.0 * flops);
  }
#endif
  ZTable f(m, n);
  if (v == DmpVariant::kBaseline) {
    fill_baseline_order_lse(f, seed);
    return f;
  }
  fill_by_diagonals(f, seed, v, tile,
                    DmpKernels<double>{simd::lse_r0_rows, simd::lse_r0_tiled,
                                       "dmp_band.lse"});
  return f;
}

double dmp_lse_reference_cell(int m, int n, std::uint64_t seed, int i1,
                              int j1, int i2, int j2) {
  if (is_input_cell(i1, j1, i2, j2)) {
    return static_cast<double>(dmp_input_value(seed, i1, j1, i2, j2));
  }
  double v = -std::numeric_limits<double>::infinity();
  for (int k1 = i1; k1 < j1; ++k1) {
    for (int k2 = i2; k2 < j2; ++k2) {
      v = LogSum::plus(
          v, dmp_lse_reference_cell(m, n, seed, i1, k1, i2, k2) +
                 dmp_lse_reference_cell(m, n, seed, k1 + 1, j1, k2 + 1, j2));
    }
  }
  return v;
}

}  // namespace rri::core
