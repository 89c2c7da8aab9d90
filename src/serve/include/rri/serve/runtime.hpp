#ifndef RRI_SERVE_RUNTIME_HPP
#define RRI_SERVE_RUNTIME_HPP

/// \file runtime.hpp
/// The one job runtime behind both serving front ends, run_batch
/// (engine.hpp) and the Daemon (daemon.hpp): a ResultCache, a bounded
/// queue of job handles, a pool of worker threads, and the only
/// `execute` — cache probe, then bpmax_score (max-plus) or bppart_log_z
/// (log-sum-exp), then cache put. A front end pushes handles and keeps
/// its own policy in two hooks:
///  * claim  — may this handle run now, and with which Job? nullopt
///    skips it (already served, coalesced, cancelled, shed, stopped);
///  * settle — record the outcome, or the error the kernel threw; true
///    stops the pool (the queue closes; claim refuses what is left).
/// Each worker runs on its own kProcServe trace lane, so the gaps
/// between its "serve.wait" and "serve.execute" spans are queue
/// starvation.

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/serve/cache.hpp"
#include "rri/serve/job.hpp"
#include "rri/serve/queue.hpp"

namespace rri::serve {

class Runtime {
 public:
  /// A front end's name for one queued job: a manifest index for
  /// run_batch, an admission ticket for the daemon.
  using Handle = std::size_t;
  using Claim = std::function<std::optional<Job>(Handle)>;
  /// `error` is empty on success; otherwise `outcome` carries only the
  /// job id.
  using Settle = std::function<bool(Handle, const JobOutcome& outcome,
                                    const std::string& error)>;

  /// Every job runs with `kernel_threads` OpenMP threads (the grain),
  /// `variant` for max-plus jobs and `tile`. `cache_bytes` = 0
  /// disables memoization.
  Runtime(int kernel_threads, core::Variant variant, core::TileShape3 tile,
          std::size_t cache_bytes, std::size_t queue_capacity);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Install the hooks and start `workers` threads draining the queue.
  void start(int workers, Claim claim, Settle settle);
  /// Blocks while the queue is full (backpressure); false once closed.
  bool push(Handle handle) { return queue_.push(handle); }
  /// Close the queue, let the workers drain it, and join them. Returns
  /// each worker's busy seconds.
  std::vector<double> join();
  /// claim -> execute -> settle on the calling thread (start() must
  /// have installed the hooks). Returns the seconds spent, 0 when claim
  /// declined.
  double run_one(Handle handle);

  ResultCache& cache() noexcept { return cache_; }
  std::size_t queue_depth() const { return queue_.depth(); }
  std::size_t queue_high_water() const { return queue_.high_water(); }
  /// Kernel runs so far; cache hits are not counted.
  std::size_t computed() const noexcept { return computed_.load(); }

 private:
  JobOutcome execute(const Job& job);
  void worker_loop(int worker_id);

  const int kernel_threads_;
  const core::Variant variant_;
  const core::TileShape3 tile_;
  ResultCache cache_;
  BoundedQueue<Handle> queue_;
  Claim claim_;
  Settle settle_;
  std::vector<double> busy_;  ///< per worker, written by its own thread
  std::atomic<std::size_t> computed_{0};
  std::vector<std::thread> workers_;  ///< last: they use everything above
};

}  // namespace rri::serve

#endif  // RRI_SERVE_RUNTIME_HPP
