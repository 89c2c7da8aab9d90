// Layer probes of the traced run. Each probe times calls into one
// layer's public functions from outside, at fixed shapes, so a per-layer
// number can be compared across commits whatever the workload.

#include <omp.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "rri/core/bpmax_kernels.hpp"
#include "rri/core/double_maxplus.hpp"
#include "rri/core/stable.hpp"
#include "rri/harness/flops.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/jobstore.hpp"
#include "rri/serve/protocol.hpp"
#include "workloads.hpp"

namespace rribench {

namespace {

namespace core = rri::core;
namespace fs = std::filesystem;

/// OpenMP thread count for the lifetime of the guard.
class OmpThreads {
 public:
  explicit OmpThreads(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~OmpThreads() { omp_set_num_threads(saved_); }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int saved_;
};

template <typename F>
double time_it(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Median of `reps` timings of f.
template <typename F>
double median_time(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    t.push_back(time_it(f));
  }
  return median(t);
}

/// One fill_variant on fresh tables: the fill alone, without S-tables,
/// score tables or the F-table allocation.
double fill_s(const Pair& p, const rri::rna::ScoringModel& model,
              int threads, core::Variant variant) {
  const rri::rna::ScoreTables scores(p.s1, p.s2_solver, model);
  const core::STable s1(p.s1, model);
  const core::STable s2(p.s2_solver, model);
  core::FTable f(scores.m(), scores.n());
  core::BpmaxOptions options;
  options.variant = variant;
  const OmpThreads guard(threads);
  return time_it([&] { core::fill_variant(f, s1, s2, scores, options); });
}

}  // namespace

Metrics core_probes(const Options& opt) {
  Metrics out;
  const int nt = opt.cores;
  // The solve-pair shapes and the batch-screen logsumexp shape. Metric
  // names keep the full-size shapes; --tiny only shrinks the work.
  const int m = opt.tiny ? 9 : 39;
  const int n = opt.tiny ? 14 : 140;
  const int wm = opt.tiny ? 6 : 16;
  const int wn = opt.tiny ? 20 : 256;
  const int lm = opt.tiny ? 6 : 24;
  const int ln = opt.tiny ? 10 : 80;
  std::mt19937_64 rng(opt.seed ^ 0x9e3779b97f4a7c15ull);
  const Pair big = planted_pair(m, n, rng);
  const Pair wide = planted_pair(wm, wn, rng);
  const Pair lse = planted_pair(lm, ln, rng);
  const rri::rna::ScoringModel model = rri::rna::ScoringModel::bpmax_default();

  // The double max-plus kernel alone, on the tiled schedule the default
  // fill uses for its R0 band. Bytes are computed, not measured: one
  // pass over the 4-byte table, ignoring cache misses.
  const double flops = rri::harness::double_maxplus_flops(m, n);
  auto dmp = [&](int threads) {
    const OmpThreads guard(threads);
    return time_it([&] {
      (void)core::solve_double_maxplus(m, n, opt.seed,
                                       core::DmpVariant::kTiled);
    });
  };
  put(out, "core.dmp.gflops.1t", flops / dmp(1) / 1e9, "GFLOP/s");
  put(out, "core.dmp.gflops.nt", flops / dmp(nt) / 1e9, "GFLOP/s");
  put(out, "core.dmp.flops", flops, "flop");
  const double bytes = 4.0 * m * m * static_cast<double>(n) * n;
  put(out, "core.dmp.bytes_computed", bytes, "B");
  put(out, "core.dmp.ops_per_byte", flops / bytes, "flop/B");

  // One solve, split into S-tables, fill and the rest.
  const double stable = median_time(5, [&] {
    const core::STable s1(big.s1, model);
    const core::STable s2(big.s2_solver, model);
  });
  const double fill_1t = fill_s(big, model, 1, core::Variant::kHybridTiled);
  const double fill_nt = fill_s(big, model, nt, core::Variant::kHybridTiled);
  core::BpmaxOptions solve_nt;
  solve_nt.num_threads = nt;
  const double solve = time_it(
      [&] { (void)core::bpmax_solve(big.s1, big.s2_solver, model, solve_nt); });
  put(out, "core.stable_s", stable, "s");
  put(out, "core.fill_s.39x140.1t", fill_1t, "s");
  put(out, "core.fill_s.39x140.nt", fill_nt, "s");
  put(out, "core.fill_s.16x256.nt",
      fill_s(wide, model, nt, core::Variant::kHybridTiled), "s");
  put(out, "core.solve_other_s", solve - stable - fill_nt, "s");
  put(out, "core.fill.parallel_eff", fill_1t / (nt * fill_nt), "ratio");

  // The default (hybrid_tiled on the resolved backend) against every
  // parallel variant on every supported backend, at nt threads.
  const core::simd::Backend resolved = core::simd::active_backend();
  double best = std::numeric_limits<double>::infinity();
  double fill_default = 0.0;
  double fill_scalar = 0.0;
  for (const core::simd::Backend b : core::simd::supported_backends()) {
    core::simd::set_backend(b);
    for (const core::Variant v :
         {core::Variant::kCoarse, core::Variant::kFine, core::Variant::kHybrid,
          core::Variant::kHybridTiled}) {
      const double t = fill_s(big, model, nt, v);
      if (t < best) {
        best = t;
      }
      if (v == core::Variant::kHybridTiled && b == resolved) {
        fill_default = t;
      }
      if (v == core::Variant::kHybridTiled &&
          b == core::simd::Backend::kScalar) {
        fill_scalar = t;
      }
    }
  }
  core::simd::reset_backend();
  put(out, "core.default_over_best", fill_default / best, "ratio");
  put(out, "core.auto_over_scalar", fill_default / fill_scalar, "ratio");

  // The log-sum-exp algebra: its kernel alone, then BPPart against BPMax
  // on one pair, single-threaded as batch-screen runs them.
  {
    const OmpThreads guard(nt);
    const double t = time_it([&] {
      (void)core::solve_double_lse(lm, ln, opt.seed, core::DmpVariant::kTiled);
    });
    put(out, "core.dmp_lse.gflops",
        rri::harness::double_maxplus_flops(lm, ln) / t / 1e9, "GFLOP/s");
  }
  core::BppartOptions part_1t;
  part_1t.num_threads = 1;
  core::BpmaxOptions max_1t;
  max_1t.num_threads = 1;
  const double bppart = time_it(
      [&] { (void)core::bppart_log_z(lse.s1, lse.s2_solver, model, part_1t); });
  const double bpmax = time_it(
      [&] { (void)core::bpmax_solve(lse.s1, lse.s2_solver, model, max_1t); });
  put(out, "core.bppart_s.24x80", bppart, "s");
  put(out, "core.bppart_over_bpmax", bppart / bpmax, "ratio");
  return out;
}

Metrics serve_probes(const Options& opt, std::size_t history) {
  Metrics out;
  std::mt19937_64 rng(opt.seed ^ 0x5eedull);
  std::vector<rri::serve::Job> jobs;
  for (std::size_t i = 0; i < std::max<std::size_t>(history, 10); ++i) {
    const Pair p = planted_pair(22, 24, rng);
    rri::serve::Job job;
    job.id = "js-" + std::to_string(i);
    job.s1 = p.s1;
    job.s2 = p.s2;
    jobs.push_back(std::move(job));
  }

  // JobStore: every transition of `history` jobs on a FileBlobStore, as
  // the daemon journals them. Bytes per transition is the size of the
  // blob each transition leaves behind.
  const std::string dir = opt.work_dir + "/jobstore-probe";
  fs::remove_all(dir);
  std::vector<double> transitions;
  std::vector<double> per_job;
  double bytes = 0.0;
  {
    rri::mpisim::FileBlobStore store(dir, "journal_", ".rrjl");
    rri::serve::JobStore js(&store);
    js.recover();
    auto newest_bytes = [&] {
      std::string newest;
      std::uintmax_t size = 0;
      for (const auto& e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind("journal_", 0) == 0 && name > newest) {
          newest = name;
          size = e.file_size();
        }
      }
      return static_cast<double>(size);
    };
    for (const rri::serve::Job& job : jobs) {
      rri::serve::JobOutcome outcome;
      outcome.id = job.id;
      outcome.key = rri::serve::job_key(job);
      outcome.m = static_cast<int>(job.s1.size());
      outcome.n = static_cast<int>(job.s2.size());
      outcome.score = 1.0f;
      const double a = time_it([&] { js.submit(job); });
      bytes += newest_bytes();
      const double b = time_it([&] { js.mark_running(job.id); });
      bytes += newest_bytes();
      const double c = time_it([&] { js.mark_done(job.id, outcome); });
      bytes += newest_bytes();
      transitions.insert(transitions.end(), {a, b, c});
      per_job.push_back(a + b + c);
    }
  }
  const auto tenth =
      std::max<std::ptrdiff_t>(1, std::ssize(per_job) / 10);
  const std::vector<double> first(per_job.begin(), per_job.begin() + tenth);
  const std::vector<double> last(per_job.end() - tenth, per_job.end());
  double recover_s = 0.0;
  {
    rri::mpisim::FileBlobStore store(dir, "journal_", ".rrjl");
    rri::serve::JobStore js(&store);
    recover_s = time_it([&] { (void)js.recover(); });
  }
  fs::remove_all(dir);
  put(out, "serve.jobstore.transition_s.p50", quantile(transitions, 0.5), "s");
  put(out, "serve.jobstore.transition_s.p99", quantile(transitions, 0.99),
      "s");
  put(out, "serve.jobstore.growth", mean(last) / mean(first), "ratio");
  put(out, "serve.jobstore.bytes_per_transition",
      bytes / static_cast<double>(transitions.size()), "B");
  put(out, "serve.jobstore.recover_s", recover_s, "s");

  // Protocol: one submit request through framing and parsing.
  const std::string payload = rri::serve::submit_payload(jobs.front());
  put(out, "serve.protocol.frame_s", median_time(2001, [&] {
        rri::serve::FrameReader reader;
        reader.feed(rri::serve::encode_frame(payload));
        (void)rri::serve::parse_request(*reader.next());
      }),
      "s");
  return out;
}

}  // namespace rribench
