#ifndef RRI_SERVE_ENGINE_HPP
#define RRI_SERVE_ENGINE_HPP

/// \file engine.hpp
/// The batch front end of the job runtime (runtime.hpp): run_batch
/// plans a manifest largest-first, pushes it through the runtime's
/// bounded queue and worker pool, and keeps what is its own — the plan,
/// single-flight for in-batch duplicates (a duplicate never starts a
/// kernel while its primary runs), RRBS checkpoints through a BlobStore
/// so an interrupted batch resumes without redoing finished jobs, and
/// the max_jobs hook. Each worker runs whole jobs with the serial or
/// OpenMP kernel (the grain: coarse job-parallelism over workers
/// composes with the paper's fine-grain parallel kernels, since each
/// worker thread carries its own OpenMP nthreads ICV). Emits serve.*
/// obs counters (docs/serving.md).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/job.hpp"

namespace rri::serve {

struct EngineConfig {
  int workers = 1;
  /// OpenMP threads each worker gives its kernel (the grain): 1 =
  /// pure job-parallelism with the serial schedule; >1 = each job also
  /// runs the paper's fine-grain parallel variant.
  int kernel_threads = 1;
  core::Variant variant = core::Variant::kHybridTiled;
  core::TileShape3 tile{};
  /// ResultCache byte budget; 0 disables memoization.
  std::size_t cache_bytes = 0;
  /// Per-worker memory budget in bytes (0 = unlimited); jobs over it
  /// are rejected, not run.
  double worker_budget_bytes = 0.0;
  /// Scheduler tie-break seed (scheduler.hpp).
  std::uint64_t seed = 0;
  /// Bounded queue capacity; 0 = 2×workers.
  std::size_t queue_capacity = 0;
  /// Optional persistence: batch progress is checkpointed here every
  /// `checkpoint_every` completed jobs (and once at the end).
  mpisim::BlobStore* state_store = nullptr;
  int checkpoint_every = 8;
  /// Replay finished jobs from the newest valid stored state instead of
  /// recomputing them. Throws std::runtime_error when the stored state
  /// belongs to a different manifest.
  bool resume = false;
  /// Test/CI hook: stop admitting new jobs once this many have
  /// completed in this run (<0 = no limit). Completed work is
  /// checkpointed, so a follow-up resume finishes the batch — a
  /// deterministic stand-in for `kill -9` in interruption tests.
  int max_jobs = -1;
};

struct EngineStats {
  std::size_t jobs_total = 0;     ///< manifest size
  std::size_t jobs_served = 0;    ///< outcomes produced this run
  std::size_t jobs_computed = 0;  ///< kernel executions this run
  std::size_t cache_hits = 0;
  std::size_t jobs_resumed = 0;   ///< replayed from stored state
  std::size_t jobs_rejected = 0;  ///< refused by the memory budget
  std::size_t queue_high_water = 0;
  std::size_t checkpoints_written = 0;
  bool interrupted = false;  ///< stopped early by EngineConfig::max_jobs
  std::vector<double> worker_busy_seconds;  ///< per worker
};

struct BatchResult {
  /// One outcome per job, in manifest order (deterministic regardless
  /// of completion interleaving). Rejected jobs carry rejected = true.
  std::vector<JobOutcome> outcomes;
  EngineStats stats;
};

/// Serve a whole batch. Blocks until every job is finished, rejected,
/// or the max_jobs interruption hook fires.
BatchResult run_batch(const std::vector<Job>& jobs,
                      const EngineConfig& config);

}  // namespace rri::serve

#endif  // RRI_SERVE_ENGINE_HPP
