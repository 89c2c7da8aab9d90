#include "rri/serve/runtime.hpp"

#include <exception>
#include <utility>

#include "rri/core/bppart.hpp"
#include "rri/core/crc32.hpp"
#include "rri/harness/timing.hpp"
#include "rri/obs/obs.hpp"
#include "rri/trace/trace.hpp"

namespace rri::serve {

Runtime::Runtime(int kernel_threads, core::Variant variant,
                 core::TileShape3 tile, std::size_t cache_bytes,
                 std::size_t queue_capacity)
    : kernel_threads_(kernel_threads),
      variant_(variant),
      tile_(tile),
      cache_(cache_bytes),
      queue_(queue_capacity) {}

Runtime::~Runtime() {
  join();
}

void Runtime::start(int workers, Claim claim, Settle settle) {
  claim_ = std::move(claim);
  settle_ = std::move(settle);
  busy_.assign(static_cast<std::size_t>(workers), 0.0);
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

std::vector<double> Runtime::join() {
  queue_.close();
  for (std::thread& t : workers_) {
    t.join();
  }
  workers_.clear();
  return busy_;
}

JobOutcome Runtime::execute(const Job& job) {
  RRI_OBS_PHASE(obs::Phase::kServe);
  harness::StopWatch sw;
  const std::string key_text = job_key_text(job);
  JobOutcome o;
  o.id = job.id;
  o.key = core::crc32(key_text.data(), key_text.size());
  o.m = static_cast<int>(job.s1.size());
  o.n = static_cast<int>(job.s2.size());
  o.algebra = job.params.algebra;
  const bool lse = o.algebra == semiring::Algebra::kLogSumExp;
  std::optional<double> value = cache_.get(o.key, key_text);
  o.cache_hit = value.has_value();
  if (!o.cache_hit) {
    const rna::Sequence s2 =
        job.params.reverse ? job.s2.reversed() : job.s2;
    if (lse) {
      core::BppartOptions opts;
      opts.temperature = job.params.temperature;
      opts.tile = tile_;
      opts.num_threads = kernel_threads_;
      value = core::bppart_log_z(job.s1, s2, job.params.model(), opts);
    } else {
      core::BpmaxOptions opts;
      opts.variant = variant_;
      opts.tile = tile_;
      opts.num_threads = kernel_threads_;
      value = core::bpmax_score(job.s1, s2, job.params.model(), opts);
    }
    o.seconds = sw.seconds();
    ++computed_;
    RRI_OBS_COUNTER("serve.jobs_computed", 1);
    cache_.put(o.key, key_text, *value);
  }
  if (lse) {
    o.log_z = *value;
  }
  o.score = static_cast<float>(*value);
  return o;
}

double Runtime::run_one(Handle handle) {
  const std::optional<Job> job = claim_(handle);
  if (!job.has_value()) {
    return 0.0;
  }
  RRI_TRACE_SPAN("serve.execute");
  harness::StopWatch sw;
  JobOutcome outcome;
  std::string error;
  try {
    outcome = execute(*job);
  } catch (const std::exception& e) {
    outcome.id = job->id;
    error = e.what();
  }
  if (settle_(handle, outcome, error)) {
    queue_.close();
  }
  const double spent = sw.seconds();
  RRI_OBS_LATENCY("serve.execute_s", spent);
  return spent;
}

void Runtime::worker_loop(int worker_id) {
  RRI_TRACE_LANE(trace::kProcServe, worker_id);
  double busy = 0.0;
  for (;;) {
    std::optional<Handle> popped;
    {
      RRI_TRACE_SPAN("serve.wait");
      popped = queue_.pop();
    }
    if (!popped.has_value()) {
      break;
    }
    busy += run_one(*popped);
  }
  busy_[static_cast<std::size_t>(worker_id)] = busy;
}

}  // namespace rri::serve
