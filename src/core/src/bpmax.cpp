#include "rri/core/bpmax.hpp"

#include "rri/core/bpmax_kernels.hpp"
#include "rri/core/detail/band_items.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/harness/flops.hpp"
#include "rri/obs/obs.hpp"

namespace rri::core {

const char* variant_name(Variant v) noexcept {
  switch (v) {
    case Variant::kBaseline: return "baseline";
    case Variant::kSerialPermuted: return "serial_permuted";
    case Variant::kCoarse: return "coarse";
    case Variant::kFine: return "fine";
    case Variant::kHybrid: return "hybrid";
    case Variant::kHybridTiled: return "hybrid_tiled";
  }
  return "unknown";
}

const std::vector<Variant>& all_variants() {
  static const std::vector<Variant> variants = {
      Variant::kBaseline, Variant::kSerialPermuted, Variant::kCoarse,
      Variant::kFine,     Variant::kHybrid,         Variant::kHybridTiled,
  };
  return variants;
}

void fill_variant(FTable& f, const STable& s1t, const STable& s2t,
                  const rna::ScoreTables& scores,
                  const BpmaxOptions& options) {
  RRI_OBS_PHASE(obs::Phase::kFill);
  // Which kernel backend this fill runs on (core.simd_backend) and which
  // algebra (core.algebra, 0 = tropical), both set-semantics — surfaced
  // by bpmax --profile and perf_diff.
  simd::record_backend_counter(semiring::Algebra::kTropical);
#if RRI_OBS_ENABLED
  if (obs::enabled()) {
    // Attribute the fill's exact operation counts (and the paper's
    // AI = 1/6 flop/byte traffic model) to the phases that perform
    // them. The baseline walks every reduction per cell with no
    // separable band/finalize stages, so it books everything to kFill.
    const auto c = harness::bpmax_flops(f.m(), f.n());
    if (options.variant == Variant::kBaseline) {
      obs::add_flops(obs::Phase::kFill, c.total());
      obs::add_bytes(obs::Phase::kFill, 6.0 * c.total());
    } else {
      obs::add_flops(obs::Phase::kDmpBand, c.r0 + c.r3 + c.r4);
      obs::add_bytes(obs::Phase::kDmpBand, 6.0 * (c.r0 + c.r3 + c.r4));
      obs::add_flops(obs::Phase::kFinalize, c.r1 + c.r2 + c.cells);
      obs::add_bytes(obs::Phase::kFinalize, 6.0 * (c.r1 + c.r2 + c.cells));
    }
  }
#endif
  switch (options.variant) {
    case Variant::kBaseline:
      fill_baseline(f, s1t, s2t, scores);
      return;
    case Variant::kSerialPermuted:
      fill_serial_permuted(f, s1t, s2t, scores);
      return;
    case Variant::kCoarse:
      fill_coarse(f, s1t, s2t, scores);
      return;
    case Variant::kFine:
      fill_scheduled(f, s1t, s2t, scores, kFineSchedule, options.tile);
      return;
    case Variant::kHybrid:
      fill_scheduled(f, s1t, s2t, scores, kHybridSchedule, options.tile);
      return;
    case Variant::kHybridTiled:
      fill_scheduled(f, s1t, s2t, scores, kHybridTiledSchedule, options.tile,
                     options.r12_jblock);
      return;
  }
}

BpmaxResult bpmax_solve(const rna::Sequence& strand1,
                        const rna::Sequence& strand2,
                        const rna::ScoringModel& model,
                        const BpmaxOptions& options) {
  BpmaxResult result;
  {
    RRI_OBS_PHASE(obs::Phase::kStable);
    result.s1 = STable(strand1, model);
    result.s2 = STable(strand2, model);
#if RRI_OBS_ENABLED
    if (obs::enabled()) {
      obs::add_flops(obs::Phase::kStable,
                     harness::stable_flops(static_cast<int>(strand1.size())) +
                         harness::stable_flops(static_cast<int>(strand2.size())));
    }
#endif
  }

  const int m = static_cast<int>(strand1.size());
  const int n = static_cast<int>(strand2.size());
  // Degenerate inputs: with one strand empty the joint problem collapses
  // to the single-strand maximum of the other.
  if (m == 0 || n == 0) {
    result.score = (m == 0) ? result.s2.at(0, n - 1) : result.s1.at(0, m - 1);
    if (m == 0 && n == 0) {
      result.score = 0.0f;
    }
    return result;
  }

  const rna::ScoreTables scores = [&] {
    RRI_OBS_PHASE(obs::Phase::kSetup);
    return rna::ScoreTables(strand1, strand2, model);
  }();
  {
    RRI_OBS_PHASE(obs::Phase::kSetup);
    result.f = FTable(m, n);
  }
  {
    detail::ThreadCountGuard guard(options.num_threads);
    fill_variant(result.f, result.s1, result.s2, scores, options);
  }
  result.score = result.f.at(0, m - 1, 0, n - 1);
  return result;
}

float bpmax_score(const rna::Sequence& strand1, const rna::Sequence& strand2,
                  const rna::ScoringModel& model,
                  const BpmaxOptions& options) {
  return bpmax_solve(strand1, strand2, model, options).score;
}

}  // namespace rri::core
