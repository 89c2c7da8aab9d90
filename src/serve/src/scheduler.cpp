#include "rri/serve/scheduler.hpp"

#include <algorithm>
#include <queue>

#include "rri/core/crc32.hpp"
#include "rri/core/ftable.hpp"

namespace rri::serve {
namespace {

/// Deterministic 64-bit mix of (seed, id) for cost-tie ordering:
/// splitmix64 over the seed xor the id's CRC-32. No platform-dependent
/// std::hash — the plan must be identical across hosts.
std::uint64_t tie_break(std::uint64_t seed, const std::string& id) {
  std::uint64_t z = seed ^ core::crc32(id.data(), id.size());
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

double job_table_bytes(std::size_t m, std::size_t n,
                       semiring::Algebra algebra) {
  return core::table_bytes(m, n, algebra);
}

std::size_t job_elem_bytes(const Job& job) noexcept {
  return job.params.algebra == semiring::Algebra::kLogSumExp
             ? sizeof(double)
             : sizeof(float);
}

double job_table_bytes(const Job& job) {
  return job_table_bytes(job.s1.size(), job.s2.size(), job.params.algebra);
}

double job_cost_flops(std::size_t m, std::size_t n) {
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  return dm * dm * dm * dn * dn * dn;
}

Schedule plan_schedule(const std::vector<Job>& jobs,
                       const ScheduleConfig& config) {
  const int workers = config.workers < 1 ? 1 : config.workers;

  struct Keyed {
    PlannedJob planned;
    std::uint64_t tie;
  };
  std::vector<Keyed> admitted;
  admitted.reserve(jobs.size());

  Schedule schedule;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    PlannedJob p;
    p.job_index = i;
    p.cost_flops = job_cost_flops(jobs[i].s1.size(), jobs[i].s2.size());
    p.table_bytes = job_table_bytes(jobs[i]);
    if (config.worker_budget_bytes > 0.0 &&
        p.table_bytes > config.worker_budget_bytes) {
      schedule.rejected.push_back(i);
      continue;
    }
    admitted.push_back({p, tie_break(config.seed, jobs[i].id)});
  }

  // Largest first; cost ties by seeded hash, then manifest order so the
  // sort is a total order even for identical ids.
  std::sort(admitted.begin(), admitted.end(),
            [](const Keyed& a, const Keyed& b) {
              if (a.planned.cost_flops != b.planned.cost_flops) {
                return a.planned.cost_flops > b.planned.cost_flops;
              }
              if (a.tie != b.tie) {
                return a.tie < b.tie;
              }
              return a.planned.job_index < b.planned.job_index;
            });

  // LPT assignment: each job to the predicted least-loaded worker
  // (lowest id on load ties).
  schedule.worker_load.assign(static_cast<std::size_t>(workers), 0.0);
  using Load = std::pair<double, int>;  // (load, worker)
  std::priority_queue<Load, std::vector<Load>, std::greater<>> heap;
  for (int w = 0; w < workers; ++w) {
    heap.push({0.0, w});
  }
  schedule.order.reserve(admitted.size());
  for (Keyed& k : admitted) {
    const auto [load, w] = heap.top();
    heap.pop();
    k.planned.worker = w;
    schedule.worker_load[static_cast<std::size_t>(w)] =
        load + k.planned.cost_flops;
    heap.push({load + k.planned.cost_flops, w});
    schedule.order.push_back(k.planned);
  }
  return schedule;
}

}  // namespace rri::serve
