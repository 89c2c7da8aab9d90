#include "rri/serve/engine.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "rri/core/crc32.hpp"
#include "rri/obs/obs.hpp"
#include "rri/serve/batch_state.hpp"
#include "rri/serve/runtime.hpp"
#include "rri/serve/scheduler.hpp"

namespace rri::serve {
namespace {

/// In-batch duplicate coalescing (single-flight): only the first job of
/// a key group to be claimed runs the kernel; duplicates that arrive
/// while it is in flight park in `pending` and are served by the
/// primary's worker the moment it records — so a duplicate's cache_hit
/// flag never depends on scheduling luck.
struct Group {
  bool in_flight = false;
  bool done = false;
  std::vector<std::size_t> pending;  ///< job indices parked on this key
};

/// Shared mutable batch state. One mutex guards all of it: per-job
/// bookkeeping is microseconds against kernel runs of milliseconds to
/// minutes, so contention is irrelevant and the invariants stay simple.
struct BatchRun {
  std::mutex mutex;
  std::vector<JobOutcome> outcomes;  ///< slot per job
  std::vector<char> have;            ///< outcome slot filled
  std::unordered_map<std::string, Group> groups;  ///< by key text
  std::vector<JobOutcome> completed;  ///< completion order (checkpointed)
  std::uint32_t digest = 0;
  std::size_t served_this_run = 0;   ///< excludes resumed + rejected
  std::size_t resumed = 0;
  std::size_t checkpoints_written = 0;
  std::atomic<bool> interrupted{false};  ///< max_jobs reached, or `error`
  std::string error;  ///< set when a kernel error stopped the batch
};

void checkpoint_locked(BatchRun& run, const EngineConfig& config) {
  if (config.state_store == nullptr) {
    return;
  }
  BatchState state;
  state.manifest_digest = run.digest;
  state.completed = run.completed;
  config.state_store->put_blob(run.completed.size(),
                               encode_batch_state(state));
  ++run.checkpoints_written;
  RRI_OBS_COUNTER("serve.checkpoints_written", 1);
}

}  // namespace

BatchResult run_batch(const std::vector<Job>& jobs,
                      const EngineConfig& config) {
  const int workers = config.workers < 1 ? 1 : config.workers;
  const int checkpoint_every =
      config.checkpoint_every < 1 ? 1 : config.checkpoint_every;

  ScheduleConfig sched_config;
  sched_config.workers = workers;
  sched_config.worker_budget_bytes = config.worker_budget_bytes;
  sched_config.seed = config.seed;
  const Schedule plan = plan_schedule(jobs, sched_config);

  std::vector<std::string> key_texts(jobs.size());
  std::vector<std::uint32_t> keys(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    key_texts[i] = job_key_text(jobs[i]);
    keys[i] = core::crc32(key_texts[i].data(), key_texts[i].size());
  }

  BatchRun run;
  run.outcomes.resize(jobs.size());
  run.have.assign(jobs.size(), 0);
  run.digest = manifest_digest(jobs);

  Runtime runtime(config.kernel_threads, config.variant, config.tile,
                  config.cache_bytes,
                  config.queue_capacity > 0
                      ? config.queue_capacity
                      : 2 * static_cast<std::size_t>(workers));

  // Rejected jobs resolve at plan time: a clear per-job error instead of
  // an OOM kill mid-batch. Deterministic, so never checkpointed.
  for (const std::size_t i : plan.rejected) {
    JobOutcome o;
    o.id = jobs[i].id;
    o.key = keys[i];
    o.m = static_cast<int>(jobs[i].s1.size());
    o.n = static_cast<int>(jobs[i].s2.size());
    o.rejected = true;
    run.outcomes[i] = std::move(o);
    run.have[i] = 1;
  }
  RRI_OBS_COUNTER("serve.jobs_rejected",
                  static_cast<double>(plan.rejected.size()));

  // A fresh (non-resuming) run owns its store: clear stale blobs from
  // an earlier batch so they can never shadow this run's sequence
  // numbers after an interruption.
  if (!config.resume && config.state_store != nullptr) {
    config.state_store->clear();
  }

  // Resume: replay recorded outcomes (original timings included) and
  // pre-warm the cache so duplicates of resumed jobs still hit.
  if (config.resume && config.state_store != nullptr) {
    const auto state = latest_batch_state(*config.state_store);
    if (state.has_value()) {
      if (state->manifest_digest != run.digest) {
        throw std::runtime_error(
            "batch resume refused: stored state belongs to a different "
            "manifest");
      }
      std::unordered_map<std::string, std::size_t> by_id;
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        by_id.emplace(jobs[i].id, i);
      }
      for (const JobOutcome& o : state->completed) {
        const auto it = by_id.find(o.id);
        if (it == by_id.end() || run.have[it->second]) {
          continue;  // digest matched, so this should not happen
        }
        const std::size_t i = it->second;
        run.outcomes[i] = o;
        run.have[i] = 1;
        run.completed.push_back(o);
        run.groups[key_texts[i]].done = true;
        if (!o.rejected) {
          runtime.cache().put(keys[i], key_texts[i],
                    o.algebra == semiring::Algebra::kLogSumExp
                        ? o.log_z
                        : static_cast<double>(o.score));
        }
        ++run.resumed;
      }
      RRI_OBS_COUNTER("serve.jobs_resumed", static_cast<double>(run.resumed));
    }
  }

  // Record one finished outcome, serve any duplicates parked on its key
  // group, checkpoint on cadence, and fire the interruption hook. Runs
  // on the worker that produced the outcome.
  const std::function<void(std::size_t, JobOutcome)> record =
      [&](std::size_t index, JobOutcome outcome) {
        std::vector<std::size_t> pending;
        {
          std::lock_guard<std::mutex> lock(run.mutex);
          run.outcomes[index] = outcome;
          run.have[index] = 1;
          run.completed.push_back(outcome);
          ++run.served_this_run;
          Group& group = run.groups[key_texts[index]];
          group.done = true;
          group.in_flight = false;
          pending.swap(group.pending);
          const bool cadence =
              run.completed.size() % static_cast<std::size_t>(
                                         checkpoint_every) == 0;
          const bool limit_hit =
              config.max_jobs >= 0 &&
              run.served_this_run >=
                  static_cast<std::size_t>(config.max_jobs);
          if (cadence || limit_hit) {
            checkpoint_locked(run, config);
          }
          if (limit_hit) {
            run.interrupted.store(true);
          }
        }
        RRI_OBS_COUNTER("serve.jobs_served", 1);
        // Serve parked duplicates from the cache the primary just
        // filled; with the cache disabled (or the entry evicted) they
        // fall back to the primary's score — memoized either way, but
        // only a real cache probe counts as a hit.
        for (const std::size_t dup : pending) {
          JobOutcome o;
          o.id = jobs[dup].id;
          o.key = keys[dup];
          o.m = outcome.m;
          o.n = outcome.n;
          o.algebra = jobs[dup].params.algebra;
          const auto hit = runtime.cache().get(keys[dup], key_texts[dup]);
          if (o.algebra == semiring::Algebra::kLogSumExp) {
            o.log_z = hit.value_or(outcome.log_z);
            o.score = static_cast<float>(o.log_z);
          } else {
            o.score = static_cast<float>(
                hit.value_or(static_cast<double>(outcome.score)));
          }
          o.cache_hit = hit.has_value();
          record(dup, std::move(o));
        }
      };

  // Producer-stamped admission times for the queue-wait histogram: the
  // queue's mutex orders the stamp before the matching pop.
  std::vector<std::chrono::steady_clock::time_point> admitted(jobs.size());

  // Single flight: the first job of a key group to be claimed runs; a
  // duplicate claimed while it is in flight parks on the group. A done
  // group means the key was already computed (a resumed job, or a
  // duplicate claimed after its primary), and execute's cache probe
  // serves it.
  const auto claim = [&](std::size_t i) -> std::optional<Job> {
    if (run.interrupted.load()) {
      return std::nullopt;  // drain without executing
    }
    RRI_OBS_LATENCY("serve.queue_wait_s",
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - admitted[i])
                        .count());
    std::lock_guard<std::mutex> lock(run.mutex);
    if (run.have[i]) {
      return std::nullopt;
    }
    Group& group = run.groups[key_texts[i]];
    if (!group.done && group.in_flight) {
      group.pending.push_back(i);
      return std::nullopt;
    }
    if (!group.done) {
      group.in_flight = true;
    }
    return jobs[i];
  };
  // A kernel error stops the batch; run_batch rethrows it below.
  const auto settle = [&](std::size_t i, const JobOutcome& o,
                          const std::string& error) {
    if (!error.empty()) {
      std::lock_guard<std::mutex> lock(run.mutex);
      run.error = "job \"" + o.id + "\": " + error;
      run.interrupted.store(true);
      return true;
    }
    record(i, o);
    return run.interrupted.load();
  };
  runtime.start(workers, claim, settle);

  // Producer: admit planned jobs largest-first through the bounded
  // queue (backpressure); resumed jobs are never re-admitted.
  std::size_t queued = 0;
  for (const PlannedJob& p : plan.order) {
    {
      std::lock_guard<std::mutex> lock(run.mutex);
      if (run.have[p.job_index]) {
        continue;
      }
    }
    admitted[p.job_index] = std::chrono::steady_clock::now();
    if (!runtime.push(p.job_index)) {
      break;  // closed by the interruption hook
    }
    ++queued;
  }
  const std::vector<double> busy_out = runtime.join();
  if (!run.error.empty()) {
    throw std::runtime_error("batch stopped: " + run.error);
  }
  RRI_OBS_COUNTER("serve.jobs_queued", static_cast<double>(queued));
  RRI_OBS_COUNTER("serve.queue_depth_hwm",
                  static_cast<double>(runtime.queue_high_water()));

  // Final checkpoint so a clean finish (or an interruption that landed
  // off-cadence) is fully recoverable.
  {
    std::lock_guard<std::mutex> lock(run.mutex);
    if (config.state_store != nullptr && !run.completed.empty()) {
      checkpoint_locked(run, config);
    }
  }

  BatchResult result;
  result.stats.jobs_total = jobs.size();
  result.stats.jobs_served = run.served_this_run;
  result.stats.jobs_computed = runtime.computed();
  result.stats.jobs_resumed = run.resumed;
  result.stats.jobs_rejected = plan.rejected.size();
  result.stats.queue_high_water = runtime.queue_high_water();
  result.stats.checkpoints_written = run.checkpoints_written;
  result.stats.interrupted = run.interrupted.load();
  result.stats.worker_busy_seconds = busy_out;
  result.stats.cache_hits = runtime.cache().stats().hits;
  double busy_total = 0.0;
  for (const double b : busy_out) {
    busy_total += b;
  }
  RRI_OBS_COUNTER("serve.worker_busy_seconds", busy_total);

  // Manifest-order outcomes, served slots only.
  result.outcomes.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (run.have[i]) {
      result.outcomes.push_back(run.outcomes[i]);
    }
  }
  return result;
}

}  // namespace rri::serve
