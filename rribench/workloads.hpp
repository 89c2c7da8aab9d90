#ifndef RRIBENCH_WORKLOADS_HPP
#define RRIBENCH_WORKLOADS_HPP

/// \file workloads.hpp
/// The benchmark's three workloads (rationale beside each definition in
/// workloads.cpp) and the layer probes of the traced run (layers.cpp).

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace rribench {

/// What one measured pass of a workload produced.
struct RunResult {
  std::vector<double> latencies;  ///< one per request, seconds
  std::size_t attempted = 0;      ///< jobs offered
  std::size_t completed = 0;      ///< jobs served with a verified result
  std::size_t wrong = 0;          ///< served, but not the expected result
  std::size_t refused = 0;        ///< rejected, errored or never answered
  double window_s = 0.0;          ///< measured wall time
  double cpu_s = 0.0;             ///< user + system CPU over the window
  double peak_rss_mb = 0.0;       ///< peak resident set over the window
  Metrics layer;    ///< per-layer metrics this workload yields
  Metrics details;  ///< context for the result record

  std::size_t failed() const noexcept { return wrong + refused; }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One cold set-up, timed: what must happen before the first request
  /// can be served. Run in a fresh process for each sample.
  virtual double setup_once() = 0;
  /// Generate the inputs from the seed and their expected results
  /// (untimed; the expected results come from an independent path).
  virtual void prepare() = 0;
  /// One measured pass of `seconds`.
  virtual RunResult run(double seconds) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options);

/// Layer probes of the traced run: each times calls into one layer's
/// public functions at fixed shapes.
Metrics core_probes(const Options& options);
/// JobStore transitions up to `history` jobs, protocol framing.
Metrics serve_probes(const Options& options, std::size_t history);
/// Jobs the daemon workload's journal holds at the end of a pass.
std::size_t daemon_history(const Options& options, double seconds);

}  // namespace rribench

#endif  // RRIBENCH_WORKLOADS_HPP
