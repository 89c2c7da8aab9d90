#include "rri/core/windowed.hpp"

#include <omp.h>

#include <algorithm>

#include "rri/core/bppart.hpp"
#include "rri/core/detail/band_items.hpp"
#include "rri/obs/obs.hpp"

namespace rri::core {

namespace {

int clamped_window(int len, const ScanOptions& options) {
  return std::max(1, std::min(options.window, std::max(len, 1)));
}

/// Window start offsets of a scan over a strand of length len, in order.
std::vector<int> window_offsets(int len, const ScanOptions& options) {
  const int window = clamped_window(len, options);
  const int stride = std::max(1, options.stride);
  std::vector<int> offsets;
  for (int off = 0; off < len; off += stride) {
    offsets.push_back(off);
    if (off + window >= len) {
      break;  // this window already reaches the end
    }
  }
  return offsets;
}

}  // namespace

std::size_t live_windows(std::size_t len, const ScanOptions& options) {
  const std::size_t windows =
      window_offsets(static_cast<int>(len), options).size();
  if (!options.parallel_windows) {
    return std::min<std::size_t>(windows, 1);
  }
  const int threads = options.solver.num_threads > 0
                          ? options.solver.num_threads
                          : omp_get_max_threads();
  return std::min(windows, static_cast<std::size_t>(threads));
}

std::vector<WindowScore> scan_windows(const rna::Sequence& long_strand,
                                      const rna::Sequence& short_strand,
                                      const rna::ScoringModel& model,
                                      const ScanOptions& options) {
  // Self time here is the scan orchestration (slicing, scheduling); the
  // per-window solves report under their own phases.
  RRI_OBS_PHASE(obs::Phase::kScan);
  const int len = static_cast<int>(long_strand.size());
  const int window = clamped_window(len, options);
  const std::vector<int> offsets = window_offsets(len, options);
  if (offsets.empty()) {
    return {};
  }
  RRI_OBS_COUNTER("scan.windows", static_cast<double>(offsets.size()));

  std::vector<WindowScore> out(offsets.size());
  const auto solve_one = [&](std::size_t idx) {
    const int off = offsets[idx];
    const int w = std::min(window, len - off);
    std::vector<rna::Base> slice(
        long_strand.bases().begin() + off,
        long_strand.bases().begin() + off + w);
    const rna::Sequence sub{std::move(slice)};
    float score;
    if (options.algebra == semiring::Algebra::kLogSumExp) {
      // Windows are the parallel grain here, so each solve runs serial.
      BppartOptions popt;
      popt.temperature = options.temperature;
      popt.variant = BppartVariant::kSerial;
      score = static_cast<float>(
          bppart_log_z(sub, short_strand, model, popt));
    } else {
      score = bpmax_score(sub, short_strand, model, options.solver);
    }
    out[idx] = WindowScore{off, w, score};
  };

  if (options.parallel_windows) {
    // One window table per thread is live at once (live_windows).
    detail::ThreadCountGuard guard(options.solver.num_threads);
#pragma omp parallel for schedule(dynamic)
    for (std::size_t idx = 0; idx < offsets.size(); ++idx) {
      solve_one(idx);
    }
  } else {
    for (std::size_t idx = 0; idx < offsets.size(); ++idx) {
      solve_one(idx);
    }
  }
  return out;
}

std::vector<WindowScore> top_windows(std::vector<WindowScore> scores,
                                     std::size_t top_k) {
  std::sort(scores.begin(), scores.end(),
            [](const WindowScore& a, const WindowScore& b) {
              if (a.score != b.score) {
                return a.score > b.score;
              }
              return a.offset < b.offset;
            });
  if (scores.size() > top_k) {
    scores.resize(top_k);
  }
  return scores;
}

}  // namespace rri::core
