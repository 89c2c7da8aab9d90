#ifndef RRI_SERVE_SCHEDULER_HPP
#define RRI_SERVE_SCHEDULER_HPP

/// \file scheduler.hpp
/// Size-aware admission control and ordering for a batch of BPMax jobs.
/// Memory comes from `core::table_bytes`, the footprint the CLIs'
/// --max-mem guards use: the table of an (M, N) pair is M(M+1)/2·N² cells
/// — 4-byte floats for the tropical (BPMax) algebra, 8-byte doubles for
/// log-sum-exp (BPPart) — and the fill is Θ(M³N³) operations. The plan
/// is deterministic for a given (job list, config): jobs are ordered
/// largest-cost-first (LPT), equal costs are tie-broken by a seeded hash
/// of the job id, and each job is assigned to the predicted least-loaded
/// worker. Jobs whose table alone
/// exceeds the per-worker memory budget are rejected up front — a clear
/// per-job error instead of an OOM kill mid-batch.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rri/semiring/logsumexp.hpp"
#include "rri/serve/job.hpp"

namespace rri::serve {

/// Table footprint in bytes for strand lengths (m, n) under `algebra`:
/// `core::table_bytes`, the bytes the solver allocates. Tropical BPMax
/// fills float tables, log-sum-exp BPPart doubles.
double job_table_bytes(
    std::size_t m, std::size_t n,
    semiring::Algebra algebra = semiring::Algebra::kTropical);

/// The footprint of one job, priced under its algebra.
double job_table_bytes(const Job& job);

/// The element width (bytes per table cell) of a job's algebra.
std::size_t job_elem_bytes(const Job& job) noexcept;

/// Closed-form operation count proxy for strand lengths (m, n): the
/// dominant double max-plus band is Θ(M³N³); the constant is irrelevant
/// to ordering, so this returns m³n³.
double job_cost_flops(std::size_t m, std::size_t n);

struct ScheduleConfig {
  int workers = 1;
  /// Per-worker memory budget in bytes (the --max-mem GiB knob). A job
  /// whose table exceeds this is rejected. 0 = unlimited.
  double worker_budget_bytes = 0.0;
  /// Tie-break seed: equal-cost jobs are ordered by a seeded hash of
  /// their id, so re-planning with the same seed reproduces the order
  /// and a different seed reshuffles only within cost ties.
  std::uint64_t seed = 0;
};

struct PlannedJob {
  std::size_t job_index = 0;  ///< into the input job list
  int worker = 0;             ///< predicted executor (LPT assignment)
  double cost_flops = 0.0;
  double table_bytes = 0.0;
};

struct Schedule {
  /// Admission order, largest cost first. Workers popping from one
  /// shared queue in this order approximate the LPT makespan bound even
  /// when actual runtimes drift from the model.
  std::vector<PlannedJob> order;
  /// Predicted flops per worker under the LPT assignment.
  std::vector<double> worker_load;
  /// Indices of jobs rejected by the memory budget, ascending.
  std::vector<std::size_t> rejected;
};

/// Plan a batch. Deterministic: same jobs + same config => same plan.
Schedule plan_schedule(const std::vector<Job>& jobs,
                       const ScheduleConfig& config);

}  // namespace rri::serve

#endif  // RRI_SERVE_SCHEDULER_HPP
