#ifndef RRI_CORE_WINDOWED_HPP
#define RRI_CORE_WINDOWED_HPP

/// \file windowed.hpp
/// Windowed application of BPMax (the restriction that made the GPU port
/// of Gildemaster et al. feasible, paper §II): slide a fixed-length
/// window along a long strand and solve the full BPMax problem of each
/// window against the short partner strand. Windows are independent, so
/// this layer parallelizes trivially across them and is the natural
/// driver for target-site scanning (examples/rri_scan.cpp).

#include <cstddef>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/semiring/logsumexp.hpp"

namespace rri::core {

struct ScanOptions {
  int window = 64;   ///< strand-1 window length (clamped to the sequence)
  int stride = 16;   ///< window start step
  /// Solver for each window. Windows already saturate the machine when
  /// there are many, so the default uses the serial in-window variant.
  /// Its num_threads also sets the window loop's thread count (0 keeps
  /// the OpenMP default).
  BpmaxOptions solver{Variant::kSerialPermuted, TileShape3{}, 0};
  bool parallel_windows = true;  ///< OpenMP across windows
  /// Scoring algebra per window: kTropical scores each window with the
  /// BPMax optimum; kLogSumExp with the BPPart log partition function
  /// (a softer occupancy-style signal), serial within a window.
  semiring::Algebra algebra = semiring::Algebra::kTropical;
  /// Boltzmann temperature; used by the kLogSumExp algebra only.
  double temperature = 1.0;
};

struct WindowScore {
  int offset = 0;      ///< window start in the long strand
  int length = 0;      ///< actual window length (last window may be short)
  float score = 0.0f;  ///< BPMax score of window vs. the short strand
};

/// Scan `long_strand` against `short_strand`. Returns one entry per
/// window position, in offset order.
std::vector<WindowScore> scan_windows(const rna::Sequence& long_strand,
                                      const rna::Sequence& short_strand,
                                      const rna::ScoringModel& model,
                                      const ScanOptions& options);

/// The most window tables scan_windows holds at once for a long strand of
/// length `len`: one per window thread, never more than there are windows,
/// and one when windows run serially. Memory guards price a scan as this
/// many core::table_bytes of one window.
std::size_t live_windows(std::size_t len, const ScanOptions& options);

/// The `top_k` highest-scoring windows of a scan, best first (ties broken
/// by offset).
std::vector<WindowScore> top_windows(std::vector<WindowScore> scores,
                                     std::size_t top_k);

}  // namespace rri::core

#endif  // RRI_CORE_WINDOWED_HPP
