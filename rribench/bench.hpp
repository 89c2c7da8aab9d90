#ifndef RRIBENCH_BENCH_HPP
#define RRIBENCH_BENCH_HPP

/// \file bench.hpp
/// Shared pieces of the repository benchmark binary: run options, the
/// metric record, sample statistics, process resource usage, and the
/// benchmark's own span recorder (spans are taken *around* calls into
/// the library's public functions, never inside them).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace rribench {

using Clock = std::chrono::steady_clock;

/// Seconds on the benchmark's monotonic clock (process-relative epoch).
double now_s();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test sizes: every shape and window shrinks so a workload
  /// finishes in about a second.
  bool tiny = false;
  /// Self-test hook: perturb this many expected scores, so the
  /// correctness gate must count them as failed.
  int corrupt_expected = 0;
  /// Self-test hook: the open-loop generator sleeps this long after each
  /// submit, so it falls behind its schedule.
  double generator_stall_s = 0.0;
  std::string work_dir;  ///< scratch space for manifests and journals
  int cores = 1;         ///< usable cores (sched_getaffinity)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Set or overwrite a metric by name, keeping first-insertion order.
void put(Metrics& metrics, const std::string& name, double value,
         const std::string& unit);
const Metric* find(const Metrics& metrics, const std::string& name);

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile, q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// The highest percentile of the ladder 50/75/90/95/99/99.9 with at
/// least ten samples beyond it. A run with fewer than 20 samples has
/// no such percentile; it reports the maximum (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;  ///< samples strictly above the percentile rank
  std::size_t samples = 0;
};
Tail latency_tail(const std::vector<double>& values);

// ------------------------------------------------------- resource usage

/// User + system CPU seconds of this process so far.
double process_cpu_s();
/// Reset the kernel's peak-RSS mark (VmHWM) so a later peak_rss_mb()
/// covers only what follows. Where /proc/self/clear_refs is not
/// writable, peak_rss_mb() reports the lifetime peak instead.
void reset_peak_rss();
double peak_rss_mb();

// ------------------------------------------------------------- tracing

/// One completed span. Its layer is the name's prefix before the first
/// dot ("bench", "core", "serve").
struct Span {
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< spans of one request share this id
  int lane = 0;               ///< recording thread, registration order
};

/// In-memory span store, written once when the run ends. Recording is a
/// mutex-guarded push; it is switched on only for the traced pass.
class Tracer {
 public:
  bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) noexcept { on_.store(on); }

  std::uint64_t next_id() noexcept { return ids_.fetch_add(1) + 1; }

  /// Record a finished span with explicit ids (cross-thread spans).
  void record(const char* name, double t0, double t1, std::uint64_t id,
              std::uint64_t parent, std::uint64_t request);

  std::vector<Span> spans() const;
  void clear();

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

Tracer& tracer();

/// RAII span on the calling thread; its parent is the innermost open
/// scope on this thread, and so is its request unless one is given.
/// Free when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  double t0_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

/// Self time per layer and each request's uncovered remainder: a span's
/// self time is its duration minus the union of its children's
/// intervals; a request's remainder is the self time of its root span.
struct TraceSummary {
  struct Layer {
    std::string name;
    double self_s = 0.0;
    std::size_t spans = 0;
  };
  std::vector<Layer> layers;
  struct Request {
    std::uint64_t request = 0;
    double total_s = 0.0;
    double remainder_s = 0.0;
  };
  std::vector<Request> requests;  ///< one per root span
};
TraceSummary summarize(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" events, microseconds), readable by
/// tools/trace_view and chrome://tracing. Each event's args carry the
/// span, parent and request ids and the span's self time.
void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace rribench

#endif  // RRIBENCH_BENCH_HPP
