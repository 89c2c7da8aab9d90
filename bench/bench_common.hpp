#ifndef RRI_BENCH_COMMON_HPP
#define RRI_BENCH_COMMON_HPP

/// Shared plumbing for the per-figure/per-table bench binaries. Each
/// binary regenerates one artifact of the paper's evaluation section:
/// it prints the measured series for this host next to the paper's
/// qualitative expectation, in a form EXPERIMENTS.md can quote directly.
///
/// Workload scaling: the paper ran 6-core/12-thread Xeons on sequences up
/// to thousands of nt; default sizes here are sized for small CI boxes.
/// Set RRI_BENCH_SCALE (e.g. 4) to grow every sweep, RRI_BENCH_REPS for
/// more repetitions, RRI_BENCH_MAX_THREADS to cap thread sweeps.

#include <omp.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/core/bpmax_kernels.hpp"
#include "rri/core/double_maxplus.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/harness/flops.hpp"
#include "rri/harness/report.hpp"
#include "rri/harness/scaling.hpp"
#include "rri/harness/timing.hpp"
#include "rri/machine/spec.hpp"
#include "rri/obs/report.hpp"
#include "rri/rna/random.hpp"

namespace rri::bench {

/// Collects the tables a bench binary prints and, when RRI_BENCH_JSON is
/// set, writes them at exit as a BENCH_<slug>.json perf report (schema
/// rri-obs-report/1, the same one `bpmax --profile` and tools/perf_diff
/// speak, so a bench trajectory can be diffed run-over-run).
/// RRI_BENCH_JSON=1 writes into the working directory; any other value
/// is treated as the output directory.
class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  void set_artifact(const std::string& artifact) {
    label_ = artifact;
    slug_.clear();
    for (const char c : artifact) {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
        slug_ += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
      } else if (!slug_.empty() && slug_.back() != '_') {
        slug_ += '_';
      }
      if (slug_.size() >= 48) {
        break;
      }
    }
    while (!slug_.empty() && slug_.back() == '_') {
      slug_.pop_back();
    }
  }

  void add(const std::string& name, const harness::ReportTable& table) {
    series_.push_back(
        obs::SeriesTable{name, table.headers(), table.row_data()});
  }

  void write() const {
    const char* env = std::getenv("RRI_BENCH_JSON");
    if (env == nullptr || *env == '\0' || slug_.empty()) {
      return;
    }
    std::string path(env);
    if (path == "1") {
      path.clear();
    } else if (path.back() != '/') {
      path += '/';
    }
    path += "BENCH_" + slug_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    obs::PerfReport report = obs::capture_report(label_, watch_.seconds());
    report.series = series_;
    obs::write_json(out, report);
    std::fprintf(stderr, "bench report: %s\n", path.c_str());
  }

 private:
  JsonSink() = default;

  std::string label_;
  std::string slug_;
  std::vector<obs::SeriesTable> series_;
  harness::StopWatch watch_;
};

namespace detail {
inline void write_json_sink() { JsonSink::instance().write(); }
}  // namespace detail

inline void print_banner(const char* artifact, const char* what) {
  const auto host = machine::probe_host();
  std::printf("=== %s ===\n%s\n", artifact, what);
  std::printf("host: %s | %d cores x %d SMT | OpenMP max threads %d | "
              "scale %.2f\n\n",
              host.name.c_str(), host.cores, host.threads_per_core,
              omp_get_max_threads(), harness::bench_scale());
  JsonSink::instance().set_artifact(artifact);
  std::atexit(&detail::write_json_sink);
}

/// Print `table` and register it as a JSON series (see JsonSink).
inline void print_table(const std::string& series_name,
                        const harness::ReportTable& table,
                        std::ostream& out = std::cout) {
  table.print(out);
  JsonSink::instance().add(series_name, table);
}

/// Time one full BPMax fill (excluding S-tables and allocation) and
/// return GFLOPS by the paper's operation accounting.
inline double bpmax_fill_gflops(const rna::Sequence& s1,
                                const rna::Sequence& s2,
                                const rna::ScoringModel& model,
                                const core::BpmaxOptions& options,
                                double* seconds_out = nullptr) {
  const core::STable s1t(s1, model);
  const core::STable s2t(s2, model);
  const rna::ScoreTables scores(s1, s2, model);
  const int m = static_cast<int>(s1.size());
  const int n = static_cast<int>(s2.size());
  const int reps = harness::bench_reps();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    core::FTable f(m, n);
    const double secs = harness::time_call(
        [&] { core::fill_variant(f, s1t, s2t, scores, options); });
    if (r == 0 || secs < best) {
      best = secs;
    }
  }
  if (seconds_out != nullptr) {
    *seconds_out = best;
  }
  return harness::bpmax_flops(m, n).total() / best / 1e9;
}

/// Time one standalone double max-plus fill; GFLOPS over the R0 count.
inline double dmp_gflops(int m, int n, core::DmpVariant variant,
                         core::TileShape3 tile = {},
                         double* seconds_out = nullptr) {
  const int reps = harness::bench_reps();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double secs = harness::time_call(
        [&] { core::solve_double_maxplus(m, n, 42, variant, tile); });
    if (r == 0 || secs < best) {
      best = secs;
    }
  }
  if (seconds_out != nullptr) {
    *seconds_out = best;
  }
  return harness::double_maxplus_flops(m, n) / best / 1e9;
}

/// A variant sweep run once per supported SIMD backend. measure(n, v)
/// returns GFLOPS of variant v at inner length n on the backend set
/// before the call. Rows are measured backend by backend, rotating which
/// backend goes first, so no backend always pays for a cold start.
/// Prints one table per backend, then a table of each row's best
/// dispatched variant per backend and the host-independent invariant
///   simd_auto_over_scalar_max: X (auto -> <backend>)
/// X = max over rows of (best-variant time on the backend `auto`
/// resolves to) / (best-variant time on scalar); 1.000 when auto is
/// scalar. The baseline order bypasses the dispatched kernels, so it is
/// measured but left out of the best.
template <typename Variant, typename Measure>
void backend_sweep(const std::string& series, int m,
                   const std::vector<int>& lengths,
                   const std::vector<Variant>& variants, Variant baseline,
                   const char* (*variant_name)(Variant) noexcept,
                   Measure&& measure) {
  const core::simd::Backend resolved = core::simd::active_backend();
  const std::vector<core::simd::Backend> backends =
      core::simd::supported_backends();
  std::vector<std::string> header = {"M x N"};
  for (const Variant v : variants) {
    header.emplace_back(variant_name(v));
  }
  std::vector<harness::ReportTable> tables(backends.size(),
                                           harness::ReportTable(header));
  // best[row][backend] = best dispatched-variant GFLOPS.
  std::vector<std::vector<double>> best(
      lengths.size(), std::vector<double>(backends.size(), 0.0));
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    const std::string label =
        std::to_string(m) + "x" + std::to_string(lengths[r]);
    for (std::size_t k = 0; k < backends.size(); ++k) {
      const std::size_t bi = (r + k) % backends.size();
      core::simd::set_backend(backends[bi]);
      std::vector<std::string> row = {label};
      for (const Variant v : variants) {
        const double gflops = measure(lengths[r], v);
        if (v != baseline) {
          best[r][bi] = std::max(best[r][bi], gflops);
        }
        row.push_back(harness::fmt_double(gflops, 3));
      }
      tables[bi].add_row(std::move(row));
    }
  }
  core::simd::reset_backend();

  std::vector<std::string> best_header = {"M x N"};
  std::size_t scalar_i = 0;
  std::size_t auto_i = 0;
  for (std::size_t bi = 0; bi < backends.size(); ++bi) {
    const std::string bname = core::simd::backend_name(backends[bi]);
    std::printf("--- backend: %s%s ---\n", bname.c_str(),
                backends[bi] == resolved ? " (auto)" : "");
    print_table(series + "_" + bname, tables[bi]);
    std::printf("\n");
    best_header.push_back(bname + "_best");
    if (backends[bi] == core::simd::Backend::kScalar) {
      scalar_i = bi;
    }
    if (backends[bi] == resolved) {
      auto_i = bi;
    }
  }
  best_header.push_back("auto_over_scalar");
  harness::ReportTable best_table(best_header);
  double worst = 0.0;
  for (std::size_t r = 0; r < lengths.size(); ++r) {
    std::vector<std::string> row = {std::to_string(m) + "x" +
                                    std::to_string(lengths[r])};
    for (const double g : best[r]) {
      row.push_back(harness::fmt_double(g, 3));
    }
    const double ratio =
        best[r][auto_i] > 0.0 ? best[r][scalar_i] / best[r][auto_i] : 0.0;
    worst = std::max(worst, ratio);
    row.push_back(harness::fmt_double(ratio, 3));
    best_table.add_row(std::move(row));
  }
  print_table(series + "_simd", best_table);
  std::printf("simd_auto_over_scalar_max: %.3f (auto -> %s)\n", worst,
              core::simd::backend_name(resolved));
}

inline rna::Sequence bench_sequence(std::size_t len, std::uint64_t seed) {
  return rna::random_sequence(len, seed);
}

inline std::string tile_to_string(core::TileShape3 t) {
  auto part = [](int v) {
    return v == 0 ? std::string("N") : std::to_string(v);
  };
  return part(t.ti2) + "x" + part(t.tk2) + "x" + part(t.tj2);
}

}  // namespace rri::bench

#endif  // RRI_BENCH_COMMON_HPP
