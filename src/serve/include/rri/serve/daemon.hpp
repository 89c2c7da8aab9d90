#ifndef RRI_SERVE_DAEMON_HPP
#define RRI_SERVE_DAEMON_HPP

/// \file daemon.hpp
/// The long-running serving daemon behind tools/rri_served: a TCP
/// listener speaking the length-prefixed JSONL frame protocol
/// (protocol.hpp), a journaled JobStore (jobstore.hpp) so accepted work
/// survives `kill -9`, and the same job runtime as run_batch
/// (runtime.hpp: cache, queue, worker pool, execute), fed until asked
/// to stop instead of for one manifest. The daemon keeps sockets, verbs,
/// admission, the journal and telemetry; its runtime hooks are the
/// deadline shed + queued -> running (claim) and done | failed, the
/// admission release and fail_after (settle). The scheduler's table
/// model (core::table_bytes) gates admission: a job whose F-table exceeds
/// the budget is refused at submit time with a structured error frame
/// instead of an OOM kill mid-flight. Duplicate submissions of served
/// pairs hit the runtime's ResultCache.
///
/// Lifecycle: start() binds + listens; run() serves until a `drain`
/// frame arrives or the configured stop flag goes true (the SIGTERM /
/// SIGINT path in rri_served). Drain stops intake, lets the workers
/// finish everything accepted, journals the final states, closes the
/// connections, and returns — the tool then exits 0. A `kill -9`
/// instead of a drain is the crash path: on the next start, recover()
/// replays the journal, serves completed jobs from their recorded
/// outcomes, and re-enqueues the interrupted ones.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/obs/flight.hpp"
#include "rri/obs/metrics.hpp"
#include "rri/obs/slo.hpp"
#include "rri/obs/timeseries.hpp"
#include "rri/serve/chaos.hpp"
#include "rri/serve/job.hpp"
#include "rri/serve/jobstore.hpp"
#include "rri/serve/protocol.hpp"
#include "rri/serve/runtime.hpp"
#include "rri/serve/tenant.hpp"

namespace rri::serve {

struct DaemonConfig {
  std::string host = "127.0.0.1";
  /// 0 = let the kernel pick an ephemeral port; start() returns it.
  int port = 0;
  int workers = 1;
  /// OpenMP threads per kernel run (the grain, as in EngineConfig).
  int kernel_threads = 1;
  core::Variant variant = core::Variant::kHybridTiled;
  core::TileShape3 tile{};
  /// ResultCache byte budget; 0 disables memoization.
  std::size_t cache_bytes = 64u << 20;
  /// Admission control: a job whose F-table (core::table_bytes, the
  /// --max-mem model) exceeds this is rejected at submit. 0 = unlimited.
  double job_budget_bytes = 0.0;
  /// Defaults merged under each submit's "params" object.
  JobParams param_defaults{};
  /// Journal persistence; null = in-memory only (no crash durability).
  mpisim::BlobStore* journal_store = nullptr;
  /// Worker-queue capacity; 0 = max(64, 4 x workers). Submits beyond it
  /// block the submitting connection (backpressure), never drop work.
  std::size_t queue_capacity = 0;
  /// External stop request (SIGTERM/SIGINT handler sets it); polled by
  /// the accept loop a few times a second. Equivalent to `drain`.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Test/CI hook mirroring EngineConfig::max_jobs: once this many jobs
  /// finish in this run, stop executing (journal intact, queued jobs
  /// left queued) and return — a deterministic in-process stand-in for
  /// `kill -9`. <0 = no limit.
  int fail_after = -1;
  /// Per-tenant quota buckets (--tenant-config). Default-constructed =
  /// every tenant unlimited; the governor still runs, so the stats verb
  /// always reports per-tenant tallies.
  TenantConfig tenant_config{};
  /// Queue-depth high watermark: a submit arriving while the worker
  /// queue holds at least this many jobs is shed with an "overloaded"
  /// error carrying retry_after_s. 0 = never shed (backpressure only).
  std::size_t shed_queue_depth = 0;
  /// Per-connection read timeout: a connection that delivers no bytes
  /// for this long is answered with an "idle_timeout" error frame and
  /// closed, so a slowloris client cannot pin a connection thread.
  /// 0 = wait forever (the pre-quota behavior).
  double idle_timeout_s = 0.0;
  /// Socket fault injection on the daemon's read/write paths
  /// (RRI_CHAOS= in rri_served). Empty = no chaos.
  ChaosPlan chaos{};
  /// Prometheus `GET /metrics` HTTP/1.0 listener on the same host:
  /// -1 = off, 0 = ephemeral (metrics_port() returns it after start()).
  /// The `metrics` protocol verb works regardless of this setting.
  int metrics_port = -1;
  /// Telemetry tick: time-series sampling + SLO evaluation period.
  double telemetry_interval_s = 1.0;
  /// JSONL SLO objectives (--slo-config); "" = no objectives.
  std::string slo_config;
  /// Flight-recorder output directory (--flight-dir); "" = no dumps.
  std::string flight_dir;
  /// Trailing series window captured per flight dump.
  double flight_window_s = 60.0;
  /// External dump request (the SIGUSR2 handler sets it); polled by the
  /// telemetry tick, which dumps once and clears the flag.
  std::atomic<bool>* flight_flag = nullptr;
};

struct DaemonStats {
  JobCounts jobs;                    ///< at shutdown
  std::size_t connections = 0;       ///< accepted over the lifetime
  std::size_t frames = 0;            ///< request frames handled
  std::size_t protocol_errors = 0;   ///< frames answered with an error
  std::size_t jobs_submitted = 0;    ///< accepted this run
  std::size_t jobs_rejected = 0;     ///< refused by admission control
  std::size_t jobs_executed = 0;     ///< kernel runs this run (no cache hits)
  std::size_t jobs_replayed = 0;     ///< terminal jobs adopted from journal
  std::size_t jobs_requeued = 0;     ///< interrupted jobs re-enqueued
  std::size_t quota_rejections = 0;  ///< submits refused by tenant quotas
  std::size_t shed_overload = 0;     ///< submits shed at the queue watermark
  std::size_t shed_deadline = 0;     ///< jobs shed expired at dequeue
  std::size_t idle_timeouts = 0;     ///< connections closed for idleness
  std::size_t chaos_events = 0;      ///< injected stalls + splits + resets
  bool interrupted = false;          ///< stopped by fail_after
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Replay the journal, bind and listen. Returns the bound port.
  /// Throws std::runtime_error when the socket cannot be set up.
  int start();

  /// Serve until drain (verb, stop flag, or request_drain()) or the
  /// fail_after hook. Blocks; returns after the shutdown sequence.
  void run();

  /// Ask a running daemon to drain (thread-safe; idempotent).
  void request_drain();

  int port() const noexcept { return port_; }
  /// Bound /metrics HTTP port (0 until start(), or with metrics off).
  int metrics_port() const noexcept { return metrics_port_; }
  DaemonStats stats() const;

 private:
  struct Connection;

  /// Admission metadata kept from submit until the job goes terminal:
  /// the timestamp feeds the serve.queue_wait_s histograms and the
  /// deadline check at dequeue; tenant + table_bytes are what finish()
  /// releases back to the governor. Ephemeral by design — a restart
  /// re-admits recovered jobs with a fresh clock and no deadline.
  struct Admission {
    std::chrono::steady_clock::time_point at{};
    double deadline_s = 0.0;
    std::string tenant;
    double table_bytes = 0.0;
  };

  void accept_loop();
  void handle_connection(Connection* conn);
  /// One response frame through the chaos plan (stall / split / reset).
  /// False when the write failed or chaos reset the connection.
  bool send_frame(Connection* conn, const std::string& payload);
  /// Count one injected chaos fault (stats, obs counter, trace event).
  void note_chaos(const char* counter, const char* event);
  /// The stall and reset faults shared by the read and write paths:
  /// sleeps through a stall; true when a reset was armed on `fd`.
  bool chaos_stall_or_reset(int fd);
  std::string handle_request(const Request& req, bool* drain_out);
  std::string submit_response(const Request& req);
  std::string result_response(const Request& req);
  /// The runtime's hooks. claim: deadline shed, then queued -> running.
  /// settle: done | failed, the admission release, and fail_after.
  std::optional<Job> claim(Runtime::Handle handle);
  bool settle(const JobOutcome& outcome, const std::string& error);
  /// Drain's last pass: every job still queued in the store runs
  /// through claim -> execute -> settle on the calling thread.
  void finish_remaining_inline();
  /// A runtime handle for `id` (mutex_ held).
  Runtime::Handle handle_for_locked(const std::string& id);
  /// Record admission bookkeeping for a job (mutex_ held).
  void record_admission_locked(const Job& job, double table_bytes);
  /// Release a job's admission back to the governor (mutex_ held).
  void release_admission_locked(const std::string& id);
  /// Shed `id` as deadline_exceeded when it expired while queued
  /// (mutex_ held). True when the job was shed.
  bool shed_if_expired_locked(const std::string& id);
  /// Monotonic seconds since run() started (the telemetry time base).
  double uptime_s() const;
  /// Refresh the set-semantics registry gauges a live scrape reads:
  /// uptime, workers, queue depth, per-tenant tallies.
  void publish_runtime_gauges();
  /// Current Prometheus exposition (refreshes the gauges first).
  std::string metrics_exposition();
  /// Telemetry tick thread: sample the time series, evaluate SLOs,
  /// honor the SIGUSR2 flight flag.
  void telemetry_loop();
  /// Minimal HTTP/1.0 loop answering `GET /metrics` on metrics_fd_.
  void metrics_loop();

  DaemonConfig config_;
  int listen_fd_ = -1;
  int port_ = 0;

  mutable std::mutex mutex_;             ///< guards store_/stats_/conns_
  std::condition_variable terminal_cv_;  ///< result-waiters
  JobStore store_;
  Runtime runtime_;
  /// Job id per runtime handle, from push until claim (mutex_ held).
  std::unordered_map<Runtime::Handle, std::string> handle_ids_;
  Runtime::Handle next_handle_ = 0;
  TenantGovernor governor_;
  DaemonStats stats_;
  std::unordered_map<std::string, Admission> admitted_;
  /// Interrupted jobs recovered by start(), re-enqueued by run().
  std::vector<std::string> requeued_;
  std::size_t finished_this_run_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> interrupted_{false};
  std::atomic<bool> closing_{false};

  std::vector<std::unique_ptr<Connection>> conns_;
  std::chrono::steady_clock::time_point started_at_{};

  // ---- telemetry plane (docs/observability.md, "Live telemetry") ----
  obs::BuildInfo build_;
  obs::Timeseries timeseries_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  int metrics_fd_ = -1;
  int metrics_port_ = 0;
  std::thread telemetry_thread_;
  std::thread metrics_thread_;
  std::atomic<bool> stop_telemetry_{false};
};

}  // namespace rri::serve

#endif  // RRI_SERVE_DAEMON_HPP
