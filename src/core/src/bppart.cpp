#include "rri/core/bppart.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "rri/core/detail/band_items.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/harness/flops.hpp"
#include "rri/obs/obs.hpp"
#include "rri/semiring/logsumexp.hpp"

namespace rri::core {

namespace {

using LogSum = semiring::LogSumExp<double>;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Scratch rows [row_begin, row_end) of the split operand A' for split
/// position a of triangle (i1, j1):
///
///   A'[i2][b] = w(a,b) x Zleft(i1, a-1, i2, b-1) x Zn1(a+1, j1)
///
/// i.e. everything of the last-inter-pair term except the trailing
/// Zn2(b+1, j2), which is exactly what the lse kernels' B operand
/// contributes (R0 pairs A'[i2][b] with Zn2[b+1][j2] for b < j2; the
/// dense wedge adds A'[i2][j2] itself, covering b == j2 where the Zn2
/// suffix is empty). Zleft empty-interval cases degrade per the grammar.
void build_split_rows(double* scratch, const ZTable& z, const PartTable& zn1,
                      const PartTable& zn2, const double* inter_w, int i1,
                      int a, int j1, int n, int row_begin, int row_end) {
  const double tail1 = zn1.at(a + 1, j1);
  const double* wrow =
      inter_w + static_cast<std::size_t>(a) * static_cast<std::size_t>(n);
  for (int i2 = row_begin; i2 < row_end; ++i2) {
    double* row =
        scratch + static_cast<std::size_t>(i2) * static_cast<std::size_t>(n);
    for (int b = i2; b < n; ++b) {
      const double w = wrow[b];
      if (w == kNegInf) {
        row[b] = kNegInf;
        continue;
      }
      double prefix;
      if (a > i1) {
        prefix = (b > i2) ? z.at(i1, a - 1, i2, b - 1) : zn1.at(i1, a - 1);
      } else {
        prefix = (b > i2) ? zn2.at(i2, b - 1) : 0.0;
      }
      row[b] = w + prefix + tail1;
    }
  }
}

/// No-inter term of triangle (i1, j1): acc[i2][j2] logaddexp=
/// Zn1(i1,j1) + Zn2(i2,j2). It cannot ride the kernels (they always run
/// the R0 reduction too), so it is a dedicated O(N^2) pass, the last
/// update every cell receives.
void add_no_inter(ZTable& z, const PartTable& zn1, const PartTable& zn2,
                  int i1, int j1) {
  const double no_inter1 = zn1.at(i1, j1);
  for (int i2 = 0; i2 < z.n(); ++i2) {
    double* row = z.row(i1, j1, i2);
    for (int j2 = i2; j2 < z.n(); ++j2) {
      row[j2] = LogSum::plus(row[j2], no_inter1 + zn2.at(i2, j2));
    }
  }
}

}  // namespace

PartTable::PartTable(const rna::Sequence& seq, const rna::ScoringModel& model,
                     double temperature) {
  l_ = static_cast<int>(seq.size());
  // Sub-diagonal and diagonal cells are 0 = log 1: empty and
  // single-base intervals admit exactly the empty structure.
  data_.assign(static_cast<std::size_t>(l_) * static_cast<std::size_t>(l_),
               0.0);
  for (int d = 1; d < l_; ++d) {
    for (int i = 0; i + d < l_; ++i) {
      const int j = i + d;
      // Condition on j: unpaired, or paired to some k — each structure
      // lands in exactly one branch, so the sum is unambiguous.
      double v = at(i, j - 1);
      for (int k = i; k < j; ++k) {
        if (!model.hairpin_ok(k, j)) {
          continue;
        }
        const float w = model.intra(seq[static_cast<std::size_t>(k)],
                                    seq[static_cast<std::size_t>(j)]);
        if (w == rna::kForbidden) {
          continue;
        }
        v = LogSum::plus(v, at(i, k - 1) +
                                static_cast<double>(w) / temperature +
                                at(k + 1, j - 1));
      }
      data_[static_cast<std::size_t>(i) * static_cast<std::size_t>(l_) +
            static_cast<std::size_t>(j)] = v;
    }
  }
}

const char* bppart_variant_name(BppartVariant v) noexcept {
  switch (v) {
    case BppartVariant::kSerial: return "serial";
    case BppartVariant::kRowParallel: return "row_parallel";
    case BppartVariant::kTiled: return "tiled";
  }
  return "unknown";
}

const std::vector<BppartVariant>& all_bppart_variants() {
  static const std::vector<BppartVariant> variants = {
      BppartVariant::kSerial,
      BppartVariant::kRowParallel,
      BppartVariant::kTiled,
  };
  return variants;
}

BppartResult bppart_solve(const rna::Sequence& strand1,
                          const rna::Sequence& strand2,
                          const rna::ScoringModel& model,
                          const BppartOptions& options) {
  const double temperature = options.temperature;
  if (!(temperature > 0.0)) {
    throw std::invalid_argument("bppart: temperature must be > 0");
  }

  BppartResult result;
  result.temperature = temperature;
  {
    RRI_OBS_PHASE(obs::Phase::kStable);
    result.zn1 = PartTable(strand1, model, temperature);
    result.zn2 = PartTable(strand2, model, temperature);
#if RRI_OBS_ENABLED
    if (obs::enabled()) {
      obs::add_flops(obs::Phase::kStable,
                     harness::stable_flops(static_cast<int>(strand1.size())) +
                         harness::stable_flops(
                             static_cast<int>(strand2.size())));
    }
#endif
  }

  const int m = static_cast<int>(strand1.size());
  const int n = static_cast<int>(strand2.size());
  // Degenerate inputs: with one strand empty the joint partition
  // function collapses to the other strand's single-strand Zn (1 when
  // both are empty — PartTable::at's empty-interval convention).
  if (m == 0 || n == 0) {
    result.log_z =
        (m == 0) ? result.zn2.at(0, n - 1) : result.zn1.at(0, m - 1);
    return result;
  }

  {
    RRI_OBS_PHASE(obs::Phase::kSetup);
    const rna::ScoreTables scores(strand1, strand2, model);
    result.inter_w.assign(
        static_cast<std::size_t>(m) * static_cast<std::size_t>(n), kNegInf);
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < n; ++b) {
        const float w = scores.inter(a, b);
        if (w != rna::kForbidden) {
          result.inter_w[static_cast<std::size_t>(a) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(b)] =
              static_cast<double>(w) / temperature;
        }
      }
    }
    result.z = ZTable(m, n);
  }

  {
    RRI_OBS_PHASE(obs::Phase::kFill);
    simd::record_backend_counter(semiring::Algebra::kLogSumExp);
#if RRI_OBS_ENABLED
    if (obs::enabled()) {
      // The band's candidate count matches BPMax's R0+wedge shape (one
      // split loop times the kernel's k2 reduction); the log-domain
      // tables are fp64, so the AI = 1/6 traffic model doubles to 12
      // bytes per flop-pair.
      const auto c = harness::bpmax_flops(m, n);
      obs::add_flops(obs::Phase::kDmpBand, c.r0 + c.r3 + c.r4);
      obs::add_bytes(obs::Phase::kDmpBand, 12.0 * (c.r0 + c.r3 + c.r4));
      obs::add_flops(obs::Phase::kFinalize, c.cells);
      obs::add_bytes(obs::Phase::kFinalize, 12.0 * c.cells);
    }
#endif
    // kSerial is the same driver on one thread, which makes one item per
    // triangle: every row, split a ascending.
    detail::ThreadCountGuard guard(
        options.variant == BppartVariant::kSerial ? 1 : options.num_threads);
    // One split-operand buffer per thread a band stage can run on.
    std::vector<std::vector<double>> scratch(
        static_cast<std::size_t>(detail::band_threads()),
        std::vector<double>(
            static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
            kNegInf));
    ZTable& z = result.z;
    // Diagonal scope: each triangle reads only completed diagonals. A
    // cell's updates arrive split a ascending (wedge before R0 within a
    // split), then the no-inter term, in every variant.
    for (int d1 = 0; d1 < m; ++d1) {
      {
        RRI_OBS_PHASE(obs::Phase::kDmpBand);
        detail::run_band(
            n, d1, d1 + 1, 0, m - d1, options.tile, "dmp_band.lse",
            [&](int i1, int j1, int a, TileShape3 t, int first, int last) {
              double* sc =
                  scratch[static_cast<std::size_t>(omp_get_thread_num())]
                      .data();
              const int row_begin = first * t.ti2;
              const int row_end = std::min(last * t.ti2, n);
              build_split_rows(sc, z, result.zn1, result.zn2,
                               result.inter_w.data(), i1, a, j1, n,
                               row_begin, row_end);
              if (options.variant == BppartVariant::kTiled) {
                simd::lse_maxplus_tiled(z.block(i1, j1), sc,
                                        result.zn2.data(), 0.0, kNegInf, n,
                                        t, first, last);
              } else {
                simd::lse_maxplus_rows(z.block(i1, j1), sc,
                                       result.zn2.data(), 0.0, kNegInf, n,
                                       row_begin, row_end);
              }
            });
      }
      RRI_OBS_PHASE(obs::Phase::kFinalize);
      detail::run_triangles(d1, m - d1, "finalize.lse", [&](int i1, int j1) {
        add_no_inter(z, result.zn1, result.zn2, i1, j1);
      });
    }
  }
  result.log_z = result.z.at(0, m - 1, 0, n - 1);
  return result;
}

double bppart_log_z(const rna::Sequence& strand1, const rna::Sequence& strand2,
                    const rna::ScoringModel& model,
                    const BppartOptions& options) {
  return bppart_solve(strand1, strand2, model, options).log_z;
}

std::vector<double> bppart_pair_probabilities(const BppartResult& result) {
  const int m = result.z.m();
  const int n = result.z.n();
  std::vector<double> prob;
  if (m == 0 || n == 0) {
    return prob;
  }
  prob.assign(static_cast<std::size_t>(m) * static_cast<std::size_t>(n), 0.0);
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < n; ++b) {
      const std::size_t idx = static_cast<std::size_t>(a) *
                                  static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(b);
      const double w = result.inter_w[idx];
      if (w == kNegInf) {
        continue;  // forbidden pair: exactly 0
      }
      // Structures containing (a,b) factor into a planar prefix before
      // the pair and an independent suffix after it; both are stored
      // inside values, so the "outside" weight is two table lookups.
      const double prefix =
          (a > 0) ? ((b > 0) ? result.z.at(0, a - 1, 0, b - 1)
                             : result.zn1.at(0, a - 1))
                  : ((b > 0) ? result.zn2.at(0, b - 1) : 0.0);
      const double suffix =
          (a < m - 1) ? ((b < n - 1) ? result.z.at(a + 1, m - 1, b + 1, n - 1)
                                     : result.zn1.at(a + 1, m - 1))
                      : ((b < n - 1) ? result.zn2.at(b + 1, n - 1) : 0.0);
      const double p = std::exp(prefix + w + suffix - result.log_z);
      prob[idx] = p < 1.0 ? p : 1.0;
    }
  }
  return prob;
}

}  // namespace rri::core
