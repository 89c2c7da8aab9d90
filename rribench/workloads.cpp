#include "workloads.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "rri/core/bpmax.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/client.hpp"
#include "rri/serve/daemon.hpp"
#include "rri/serve/engine.hpp"
#include "rri/serve/manifest.hpp"
#include "rri/serve/scheduler.hpp"

namespace rribench {

namespace {

namespace fs = std::filesystem;
using rri::rna::Sequence;

/// Resets the peak-RSS mark and reads CPU time at the start of a
/// measured window; close() fills the window's wall, CPU and peak RSS.
class Window {
 public:
  Window() : cpu0_(process_cpu_s()), t0_(now_s()) { reset_peak_rss(); }
  void close(RunResult& r) const {
    r.window_s = now_s() - t0_;
    r.cpu_s = process_cpu_s() - cpu0_;
    r.peak_rss_mb = peak_rss_mb();
  }

 private:
  double cpu0_;
  double t0_;
};

/// Expected result of one job, from the independent reference path.
struct Expected {
  bool lse = false;
  float score = 0.0f;
  double log_z = 0.0;
};

bool matches(const Expected& e, float score, double log_z) {
  if (e.lse) {
    return std::abs(log_z - e.log_z) <= 1e-9 * std::abs(e.log_z);
  }
  return std::bit_cast<std::uint32_t>(score) ==
         std::bit_cast<std::uint32_t>(e.score);
}

/// Self-test hook: make the first `n` expected results wrong.
void corrupt(std::vector<Expected>& expected, int n) {
  for (int i = 0; i < n && i < static_cast<int>(expected.size()); ++i) {
    expected[static_cast<std::size_t>(i)].score += 1.0f;
    expected[static_cast<std::size_t>(i)].log_z += 1.0;
  }
}

// ============================================================ solve-pair
//
// What a `bpmax` user waits for: one interactive solve of an sRNA against
// an mRNA window through core::bpmax_solve with default BpmaxOptions and
// OpenMP threads = usable cores, in a closed loop (the next solve starts
// when the previous one returns, as for one user at a terminal).
//
// Shapes: two of every three solves are 39 x 140 (an sRNA against a
// target window, a 119 MB table) and one is 16 x 256 (a short guide
// against a long window, 67 MB). The mix is fixed, so the median is a
// 39 x 140 solve whatever the seed; the seed only picks the sequences.
// The three pairs are solved in turn; the library keeps nothing between
// solves, so repeating a pair gains nothing. About 25 solves fit in 20 s,
// enough for the tail to be the p50 of the ladder (see latency_tail).
//
// Stresses: the core fill (schedule, parallel efficiency, SIMD kernel).
// Bypasses: all of serve. Set-up is SIMD backend resolution plus OpenMP
// start-up.
class SolvePair final : public Workload {
 public:
  explicit SolvePair(const Options& options) : opt_(options) {}

  double setup_once() override {
    const double t0 = now_s();
    rri::core::simd::reset_backend();
    (void)rri::core::simd::active_backend();
#pragma omp parallel num_threads(opt_.cores)
    { (void)omp_get_thread_num(); }
    return now_s() - t0;
  }

  void prepare() override {
    const std::vector<std::pair<int, int>> shapes =
        opt_.tiny
            ? std::vector<std::pair<int, int>>{{9, 14}, {9, 14}, {6, 20}}
            : std::vector<std::pair<int, int>>{{39, 140}, {39, 140}, {16, 256}};
    std::mt19937_64 rng(opt_.seed);
    for (const auto& [m, n] : shapes) {
      pool_.push_back(planted_pair(m, n, rng));
    }
    ScalarBackend scalar;
    for (const Pair& p : pool_) {
      expected_.push_back({false, reference_score(p, model_, opt_.cores), 0});
    }
    corrupt(expected_, opt_.corrupt_expected);
  }

  RunResult run(double seconds) override {
    RunResult r;
    rri::core::BpmaxOptions options;
    options.num_threads = opt_.cores;
    const Window window;
    const double start = now_s();
    for (std::size_t i = 0; now_s() - start < seconds; ++i) {
      const std::size_t k = i % pool_.size();
      const Pair& p = pool_[k];
      ++r.attempted;
      const Scope request("bench.request", i + 1);
      const double t0 = now_s();
      float score = 0.0f;
      {
        const Scope solve("core.bpmax_solve");
        score = rri::core::bpmax_solve(p.s1, p.s2_solver, model_, options)
                    .score;
      }
      r.latencies.push_back(now_s() - t0);
      if (matches(expected_[k], score, 0.0)) {
        ++r.completed;
      } else {
        ++r.wrong;
      }
    }
    window.close(r);
    return r;
  }

 private:
  Options opt_;
  rri::rna::ScoringModel model_ = rri::rna::ScoringModel::bpmax_default();
  std::vector<Pair> pool_;
  std::vector<Expected> expected_;
};

// ========================================================== batch-screen
//
// A screening user's manifest: serve::run_batch with one worker per
// usable core x 1 kernel thread, so workers x threads = cores and no
// kernel is oversubscribed. One request is one whole batch; its latency
// is the batch makespan.
//
// Each batch holds 8 jobs: 5 distinct tropical pairs spanning
// 16-39 x 80-248 nt (tables of 16-63 MB; LPT starts the four largest side
// by side, so the peak is the same in every batch), 1 distinct
// logsumexp (bppart) pair at 14 x 72 (with its duplicates about 1/6 of
// the jobs), and 2 duplicates of seeded earlier jobs (1/4 of the jobs)
// that the engine coalesces or serves from its cache. The makespan is
// about 0.6 s on a 4-core AVX-512 host, so a 20 s run holds about 30
// batches: enough for a median, and for latency_tail's ladder to reach
// p50 instead of falling back to the maximum of a dozen batches, which
// spread by 16% over ten seeds. The shape mix is fixed; only the
// sequences, which jobs are duplicated and the manifest order follow the
// seed. The scheduler's cost model is (m n)^3 whatever the algebra, and
// equal costs are ordered by a seeded hash of the job id, so every
// distinct pair has a distinct m x n product: otherwise the seed would
// decide whether the logsumexp job (about ten times its modelled cost)
// starts early or last, and with it the makespan. Two manifests
// alternate; every run_batch call starts with an empty cache, so a
// repeated manifest gains nothing.
//
// Stresses: the scheduler's LPT plan, the cache, the engine pool, the
// single-thread kernel and the logsumexp path. Bypasses: parallel fill
// (every kernel runs on one thread), so a parallel-fill change should
// not move this workload. Set-up is load_manifest on the manifest file
// plus plan_schedule.
class BatchScreen final : public Workload {
 public:
  explicit BatchScreen(const Options& options) : opt_(options) {
    config_.workers = opt_.cores;
    config_.kernel_threads = 1;
    config_.cache_bytes = std::size_t{64} << 20;
    config_.seed = opt_.seed;
  }

  double setup_once() override {
    write_manifests(nullptr);
    return timed_setup();
  }

  void prepare() override {
    std::vector<std::vector<Pair>> pairs;
    write_manifests(&pairs);
    ScalarBackend scalar;
    expected_.clear();
    for (std::size_t k = 0; k < kManifests; ++k) {
      std::vector<Expected> expected;
      for (std::size_t j = 0; j < pairs[k].size(); ++j) {
        const bool lse = lse_[k][j];
        const Pair& p = pairs[k][j];
        expected.push_back(
            {lse, lse ? 0.0f : reference_score(p, model_, opt_.cores),
             lse ? reference_log_z(p, model_, opt_.cores) : 0.0});
      }
      expected_.push_back(std::move(expected));
    }
    for (auto& e : expected_) {
      corrupt(e, opt_.corrupt_expected);
    }
  }

  RunResult run(double seconds) override {
    RunResult r;
    const double setup_s = timed_setup();
    std::size_t served = 0;
    std::size_t hits = 0;
    std::size_t computed = 0;
    std::size_t distinct = 0;
    std::size_t high_water = 0;
    double busy = 0.0;
    double makespans = 0.0;
    std::vector<double> stragglers;
    const Window window;
    const double start = now_s();
    for (std::size_t b = 0; now_s() - start < seconds; ++b) {
      const std::size_t k = b % kManifests;
      const std::vector<rri::serve::Job>& jobs = jobs_[k];
      r.attempted += jobs.size();
      const Scope request("bench.request", b + 1);
      const double t0 = now_s();
      rri::serve::BatchResult res;
      {
        const Scope batch("serve.run_batch");
        res = rri::serve::run_batch(jobs, config_);
      }
      const double makespan = now_s() - t0;
      r.latencies.push_back(makespan);
      for (std::size_t i = 0; i < res.outcomes.size(); ++i) {
        const rri::serve::JobOutcome& o = res.outcomes[i];
        if (o.rejected) {
          ++r.refused;
        } else if (matches(expected_[k][job_pair_[k][i]], o.score, o.log_z)) {
          ++r.completed;
        } else {
          ++r.wrong;
        }
        hits += o.cache_hit ? 1 : 0;
      }
      r.refused += jobs.size() - std::min(jobs.size(), res.outcomes.size());
      served += res.outcomes.size();
      computed += res.stats.jobs_computed;
      distinct += expected_[k].size();
      high_water = std::max(high_water, res.stats.queue_high_water);
      double batch_busy = 0.0;
      for (const double s : res.stats.worker_busy_seconds) {
        batch_busy += s;
      }
      busy += batch_busy;
      makespans += makespan;
      stragglers.push_back(makespan - batch_busy / config_.workers);
    }
    window.close(r);
    put(r.layer, "serve.load_manifest_s", load_s_, "s");
    put(r.layer, "serve.plan_schedule_s", plan_s_, "s");
    put(r.layer, "serve.cache.hit_ratio",
        served ? static_cast<double>(hits) / static_cast<double>(served) : 0,
        "ratio");
    put(r.layer, "serve.engine.computed",
        distinct ? static_cast<double>(computed) / static_cast<double>(distinct)
                 : 0,
        "ratio");
    put(r.layer, "serve.engine.busy_ratio",
        makespans > 0 ? busy / (config_.workers * makespans) : 0, "ratio");
    put(r.layer, "serve.engine.straggler_s", median(stragglers), "s");
    put(r.layer, "serve.queue.high_water", static_cast<double>(high_water),
        "count");
    put(r.details, "setup_in_run_s", setup_s, "s");
    put(r.details, "jobs_per_batch", static_cast<double>(jobs_[0].size()),
        "count");
    put(r.details, "workers", config_.workers, "count");
    return r;
  }

 private:
  static constexpr std::size_t kManifests = 2;

  struct Shape {
    int m;
    int n;
    bool lse;
  };

  std::vector<Shape> shapes() const {
    if (opt_.tiny) {
      return {{8, 16, false}, {10, 12, false}, {9, 13, false},
              {8, 12, false}, {6, 10, false},  {6, 9, true}};
    }
    return {{16, 248, false}, {39, 80, false}, {24, 120, false},
            {20, 100, false}, {16, 88, false}, {14, 72, true}};
  }

  std::string manifest_path(std::size_t k) const {
    return opt_.work_dir + "/manifest-" + std::to_string(k) + ".jsonl";
  }

  /// Generate both manifests from the seed and write them as JSONL. The
  /// distinct pairs (for the references) go to `pairs` when given.
  void write_manifests(std::vector<std::vector<Pair>>* pairs) {
    constexpr std::size_t kDuplicates = 2;
    std::mt19937_64 rng(opt_.seed);
    job_pair_.assign(kManifests, {});
    lse_.assign(kManifests, {});
    for (std::size_t k = 0; k < kManifests; ++k) {
      std::vector<Pair> distinct;
      for (const Shape& s : shapes()) {
        distinct.push_back(planted_pair(s.m, s.n, rng));
        lse_[k].push_back(s.lse);
      }
      std::vector<std::size_t> order(distinct.size());
      for (std::size_t j = 0; j < order.size(); ++j) {
        order[j] = j;
      }
      std::uniform_int_distribution<std::size_t> pick(0, distinct.size() - 1);
      for (std::size_t d = 0; d < kDuplicates; ++d) {
        order.push_back(pick(rng));
      }
      std::shuffle(order.begin(), order.end(), rng);
      std::ofstream out(manifest_path(k));
      for (std::size_t i = 0; i < order.size(); ++i) {
        const Pair& p = distinct[order[i]];
        out << "{\"id\":\"m" << k << "-j" << i << "\",\"s1\":\""
            << p.s1.to_string() << "\",\"s2\":\"" << p.s2.to_string() << "\"";
        if (lse_[k][order[i]]) {
          out << ",\"params\":{\"algebra\":\"logsumexp\"}";
        }
        out << "}\n";
      }
      if (!out) {
        throw std::runtime_error("cannot write " + manifest_path(k));
      }
      job_pair_[k] = order;
      if (pairs != nullptr) {
        pairs->push_back(std::move(distinct));
      }
    }
  }

  /// load_manifest + plan_schedule of every manifest; the per-manifest
  /// means go to the serve.load_manifest_s / plan_schedule_s metrics.
  double timed_setup() {
    jobs_.clear();
    const double t0 = now_s();
    double load = 0.0;
    double plan = 0.0;
    rri::serve::ScheduleConfig sc;
    sc.workers = config_.workers;
    sc.seed = config_.seed;
    for (std::size_t k = 0; k < kManifests; ++k) {
      const double a = now_s();
      jobs_.push_back(rri::serve::load_manifest_file(manifest_path(k)));
      const double b = now_s();
      const rri::serve::Schedule plan_k =
          rri::serve::plan_schedule(jobs_.back(), sc);
      plan += now_s() - b;
      load += b - a;
      if (!plan_k.rejected.empty()) {
        throw std::runtime_error("batch-screen: the plan rejects a job");
      }
    }
    const double total = now_s() - t0;
    load_s_ = load / kManifests;
    plan_s_ = plan / kManifests;
    return total;
  }

  Options opt_;
  rri::serve::EngineConfig config_;
  rri::rna::ScoringModel model_ = rri::rna::ScoringModel::bpmax_default();
  std::vector<std::vector<rri::serve::Job>> jobs_;
  std::vector<std::vector<std::size_t>> job_pair_;  ///< job -> distinct pair
  std::vector<std::vector<bool>> lse_;              ///< per distinct pair
  std::vector<std::vector<Expected>> expected_;     ///< per distinct pair
  double load_s_ = 0.0;
  double plan_s_ = 0.0;
};

// ====================================================== daemon-journaled
//
// Independent users submitting short guide-vs-site duplexes to a
// journaled rri_served: an in-process serve::Daemon with a FileBlobStore
// journal in a fresh directory, 2 workers x 1 kernel thread, driven over
// loopback by DaemonClient in an open loop at a fixed rate. One
// connection submits on schedule and a second collects results in submit
// order, so a slow daemon cannot slow the arrivals. A request's latency
// runs from the moment it was due, so a stall also charges the requests
// queued behind it; how late the generator itself ran is reported
// separately (bench.generator_late_p99_s). Arrivals are evenly spaced,
// not Poisson, so the run-to-run spread comes from the daemon, not from
// the arrival draw.
//
// Pairs are 21-23 x 21-25 nt (a few ms of kernel each), and every 5th
// job repeats an earlier pair, which the result cache serves. At 80
// jobs/s the journal holds 1600 jobs after 20 s. The journal rewrites
// itself on every transition, so the daemon's capacity falls, and its
// write volume grows, with history. On a 4-core AVX-512 host 150 jobs/s
// built a backlog near 3000 jobs, and at 120 jobs/s (2400 jobs) the p99
// of five seeded runs spread by a third, as bursts of stalled requests
// came and went; at 80 jobs/s no backlog grows and p99 repeats. The
// journal's per-transition cost and the parse -> admit -> journal ->
// queue -> respond path dominate; the kernel is about half of a
// request. Set-up is Daemon::start() (journal recover + bind) plus a
// client connect.
class DaemonJournaled final : public Workload {
 public:
  static constexpr double kRate = 80.0;      ///< jobs per second
  static constexpr double kTinyRate = 40.0;

  explicit DaemonJournaled(const Options& options) : opt_(options) {
    config_.workers = 2;
    config_.kernel_threads = 1;
  }

  double setup_once() override {
    Server server(*this, 0);
    return server.setup_s;
  }

  void prepare() override {
    std::mt19937_64 rng(opt_.seed);
    const int mlo = opt_.tiny ? 8 : 21;
    const int nlo = opt_.tiny ? 8 : 21;
    std::uniform_int_distribution<int> dm(mlo, mlo + 2);
    std::uniform_int_distribution<int> dn(nlo, nlo + 4);
    const std::size_t total = daemon_history(opt_, opt_.seconds) + 1;
    for (std::size_t i = 0; i < total; ++i) {
      if (i % 5 == 4) {
        std::uniform_int_distribution<std::size_t> earlier(0, i - 1);
        stream_.push_back(stream_[earlier(rng)]);
      } else {
        stream_.push_back(pairs_.size());
        const int m = dm(rng);
        const int n = dn(rng);
        pairs_.push_back(planted_pair(m, n, rng));
      }
    }
    expected_.resize(pairs_.size());
    ScalarBackend scalar;
    const auto count = static_cast<std::int64_t>(pairs_.size());
#pragma omp parallel for schedule(dynamic, 16) num_threads(opt_.cores)
    for (std::int64_t i = 0; i < count; ++i) {
      const auto k = static_cast<std::size_t>(i);
      expected_[k] = {false, reference_score(pairs_[k], model_, 1), 0.0};
    }
    corrupt(expected_, opt_.corrupt_expected);
  }

  RunResult run(double seconds) override {
    RunResult r;
    Server server(*this, ++passes_);
    rri::serve::DaemonClient submitter;
    rri::serve::DaemonClient collector;
    submitter.connect("127.0.0.1", server.port);
    collector.connect("127.0.0.1", server.port);
    const double setup_s = server.setup_s;

    struct Sent {
      std::size_t index = 0;
      double due = 0.0;
      bool accepted = false;
      std::uint64_t span = 0;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Sent> sent;
    bool generator_done = false;

    std::vector<double> late;
    std::vector<double> submit_s;
    std::vector<double> result_s;
    std::vector<double> kernel_solo;
    std::size_t hits = 0;
    std::size_t repeats = 0;
    double last_done = 0.0;
    const double rate = opt_.tiny ? kTinyRate : kRate;
    const Window window;
    const Clock::time_point start_tp = Clock::now();
    const double start = now_s();

    std::atomic<std::size_t> answered{0};
    std::thread collect([&] {
      for (;;) {
        Sent s;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !sent.empty() || generator_done; });
          if (sent.empty()) {
            return;
          }
          s = sent.front();
          sent.pop_front();
        }
        if (!s.accepted) {
          ++r.refused;
          continue;
        }
        const double t_call = now_s();
        rri::obs::JsonValue doc;
        try {
          doc = collector.result(job_id(s.index), true);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "rribench: result %zu: %s\n", s.index, e.what());
          ++r.refused;
          continue;
        }
        const double t_done = now_s();
        last_done = t_done;
        answered.fetch_add(1);
        result_s.push_back(t_done - t_call);
        r.latencies.push_back(t_done - s.due);
        tracer().record("serve.daemon.result", t_call, t_done,
                        tracer().next_id(), s.span, s.index + 1);
        tracer().record("bench.request", s.due, t_done, s.span, 0,
                        s.index + 1);
        const rri::obs::JsonValue* ok = doc.find("ok");
        if (ok == nullptr || !ok->as_bool()) {
          ++r.refused;
          continue;
        }
        rri::serve::JobOutcome o;
        try {
          o = rri::serve::DaemonClient::outcome_from_response(doc);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "rribench: result %zu: %s\n", s.index, e.what());
          ++r.wrong;
          continue;
        }
        hits += o.cache_hit ? 1 : 0;
        if (matches(expected_[stream_[s.index]], o.score, o.log_z)) {
          ++r.completed;
        } else {
          ++r.wrong;
        }
      }
    });

    // A throw here must still stop and join the collector.
    std::exception_ptr failure;
    try {
      for (std::size_t i = 0; i < stream_.size(); ++i) {
        const double offset = static_cast<double>(i) / rate;
        if (offset >= seconds) {
          break;
        }
        std::this_thread::sleep_until(
            start_tp + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(offset)));
        Sent s{i, start + offset, false,
               tracer().on() ? tracer().next_id() : 0};
        const double t_send = now_s();
        const rri::obs::JsonValue ack = submitter.submit(job(i));
        const double t_ack = now_s();
        late.push_back(t_send - s.due);
        submit_s.push_back(t_ack - t_send);
        if (t_send > s.due) {
          tracer().record("bench.send_delay", s.due, t_send, tracer().next_id(),
                          s.span, i + 1);
        }
        tracer().record("serve.daemon.submit", t_send, t_ack,
                        tracer().next_id(), s.span, i + 1);
        const rri::obs::JsonValue* ok = ack.find("ok");
        s.accepted = ok != nullptr && ok->as_bool();
        ++r.attempted;
        repeats += (i % 5 == 4) ? 1 : 0;
        {
          const std::lock_guard<std::mutex> lock(mu);
          sent.push_back(s);
        }
        cv.notify_one();
        if (opt_.generator_stall_s > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(opt_.generator_stall_s));
        }
      }
    } catch (...) {
      failure = std::current_exception();
    }
    // Requests still unanswered when the last one was sent: a backlog
    // that grew during the run shows here.
    const std::size_t backlog = r.attempted - answered.load();
    {
      const std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_one();
    collect.join();
    if (failure) {
      std::rethrow_exception(failure);
    }
    window.close(r);
    if (last_done > start) {
      r.window_s = last_done - start;
    }
    submitter.close();
    collector.close();
    const rri::serve::DaemonStats stats = server.stop();

    rri::core::BpmaxOptions solo;
    solo.num_threads = 1;
    for (std::size_t k = 0; k < std::min<std::size_t>(32, pairs_.size());
         ++k) {
      const double t0 = now_s();
      (void)rri::core::bpmax_solve(pairs_[k].s1, pairs_[k].s2_solver, model_,
                                   solo);
      kernel_solo.push_back(now_s() - t0);
    }
    const double results =
        static_cast<double>(std::max<std::size_t>(1, r.latencies.size()));
    const double distinct = static_cast<double>(r.attempted - repeats);
    put(r.layer, "serve.cache.hit_ratio", static_cast<double>(hits) / results,
        "ratio");
    // Kernel runs: answers the cache did not serve (the daemon's own
    // jobs_executed also counts cache hits).
    put(r.layer, "serve.engine.computed",
        distinct > 0 ? (results - static_cast<double>(hits)) / distinct : 0,
        "ratio");
    put(r.layer, "serve.daemon.submit_s.p50", quantile(submit_s, 0.5), "s");
    put(r.layer, "serve.daemon.submit_s.p99", quantile(submit_s, 0.99), "s");
    put(r.layer, "serve.daemon.result_s.p50", quantile(result_s, 0.5), "s");
    put(r.layer, "serve.daemon.result_s.p99", quantile(result_s, 0.99), "s");
    put(r.layer, "serve.daemon.kernel_share",
        median(kernel_solo) / std::max(1e-12, median(r.latencies)), "ratio");
    put(r.layer, "bench.generator_late_p99_s", quantile(late, 0.99), "s");
    put(r.details, "setup_in_run_s", setup_s, "s");
    put(r.details, "arrival_rate", rate, "jobs/s");
    put(r.details, "journal_jobs", static_cast<double>(stats.jobs.total()),
        "count");
    put(r.details, "generator_late_max_s",
        late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()), "s");
    put(r.details, "backlog_at_end", static_cast<double>(backlog), "count");
    if (!r.latencies.empty()) {
      const auto tenth =
          std::max<std::ptrdiff_t>(1, std::ssize(r.latencies) / 10);
      put(r.details, "latency_p50_last_over_first_tenth",
          median({r.latencies.end() - tenth, r.latencies.end()}) /
              median({r.latencies.begin(), r.latencies.begin() + tenth}),
          "ratio");
    }
    return r;
  }

 private:
  /// A daemon on a fresh journal directory, serving on its own thread.
  /// The destructor drains it and removes the directory.
  struct Server {
    Server(DaemonJournaled& owner, int pass)
        : dir(owner.opt_.work_dir + "/journal-" + std::to_string(pass)) {
      fs::remove_all(dir);
      const double t0 = now_s();
      store = std::make_unique<rri::mpisim::FileBlobStore>(dir, "journal_",
                                                           ".rrjl");
      rri::serve::DaemonConfig config = owner.config_;
      config.journal_store = store.get();
      daemon = std::make_unique<rri::serve::Daemon>(config);
      port = daemon->start();
      thread = std::thread([this] { daemon->run(); });
      try {
        rri::serve::DaemonClient probe;
        probe.connect("127.0.0.1", port);
      } catch (...) {
        stop();
        throw;
      }
      setup_s = now_s() - t0;
    }
    ~Server() {
      stop();
      fs::remove_all(dir);
    }
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    rri::serve::DaemonStats stop() {
      if (thread.joinable()) {
        daemon->request_drain();
        thread.join();
      }
      return daemon->stats();
    }

    std::string dir;
    std::unique_ptr<rri::mpisim::FileBlobStore> store;
    std::unique_ptr<rri::serve::Daemon> daemon;
    std::thread thread;
    int port = 0;
    double setup_s = 0.0;
  };

  std::string job_id(std::size_t i) const {
    std::string id = "p";  // built up in place: GCC 12 -Wrestrict
    id += std::to_string(passes_);
    id += '-';
    id += std::to_string(i);
    return id;
  }

  rri::serve::Job job(std::size_t i) const {
    rri::serve::Job j;
    j.id = job_id(i);
    const Pair& p = pairs_[stream_[i]];
    j.s1 = p.s1;
    j.s2 = p.s2;
    return j;
  }

  Options opt_;
  rri::serve::DaemonConfig config_;
  rri::rna::ScoringModel model_ = rri::rna::ScoringModel::bpmax_default();
  std::vector<Pair> pairs_;
  std::vector<std::size_t> stream_;  ///< job -> pair
  std::vector<Expected> expected_;   ///< per pair
  int passes_ = 0;
};

}  // namespace

std::size_t daemon_history(const Options& options, double seconds) {
  const double rate =
      options.tiny ? DaemonJournaled::kTinyRate : DaemonJournaled::kRate;
  return static_cast<std::size_t>(std::ceil(rate * seconds));
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solve-pair", "batch-screen",
                                                 "daemon-journaled"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& options) {
  if (name == "solve-pair") {
    return std::make_unique<SolvePair>(options);
  }
  if (name == "batch-screen") {
    return std::make_unique<BatchScreen>(options);
  }
  if (name == "daemon-journaled") {
    return std::make_unique<DaemonJournaled>(options);
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace rribench
