#include "rri/serve/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "codec.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/obs/json.hpp"
#include "rri/obs/obs.hpp"
#include "rri/serve/scheduler.hpp"
#include "rri/trace/trace.hpp"

namespace rri::serve {
namespace {

/// Poll granularity of the accept loop — how quickly a SIGTERM or a
/// drain verb from another connection is noticed.
constexpr int kAcceptPollMs = 200;

/// Poll granularity of a connection's read loop — bounds how stale an
/// idle-timeout check can get, and how long a shutdown() takes to be
/// noticed on a quiet connection.
constexpr int kConnPollMs = 200;

/// Monotonic seconds for the tenant governor's token buckets.
double mono_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Arm an RST-on-close: with SO_LINGER {on, 0} the eventual ::close()
/// aborts the connection instead of lingering through a FIN handshake —
/// the chaos "reset" fault, delivered as ECONNRESET at the peer.
void arm_reset(int fd) {
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

/// A listening TCP socket on host:port (port 0 = ephemeral); `bound`
/// receives the port actually bound. Errors name the failing call,
/// prefixed with `what`.
int listen_tcp(const std::string& host, int port, int backlog,
               const std::string& what, int* bound) {
  int fd = -1;
  const auto fail = [&](const std::string& call) {
    const int err = errno;
    if (fd >= 0) {
      ::close(fd);
    }
    throw std::runtime_error(what + call + ": " + std::strerror(err));
  };
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("rri_served: bad host \"" + host +
                             "\" (expected a dotted-quad address)");
  }
  fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fail("socket()");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    fail("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, backlog) != 0) {
    fail("listen()");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("getsockname()");
  }
  *bound = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

std::string ok_head(const char* op) {
  return std::string("{\"ok\":true,\"op\":\"") + op + "\"";
}

/// Compact (single-line) objective array for the slo verb and stats —
/// JsonValue::dump pretty-prints, which would break the one-frame-per-
/// line JSONL convention.
std::string slo_json(const std::vector<obs::SloStatus>& statuses) {
  std::string out = "[";
  char buffer[32];
  bool first = true;
  for (const obs::SloStatus& st : statuses) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"name\":\"" + obs::json_escape(st.name) + "\",\"kind\":\"";
    out += st.kind == obs::SloKind::kLatency ? "latency" : "ratio";
    out += "\",\"state\":\"";
    out += obs::slo_state_name(st.state);
    out += "\"";
    std::snprintf(buffer, sizeof(buffer), "%.6g", st.fast_burn);
    out += ",\"fast_burn\":";
    out += buffer;
    std::snprintf(buffer, sizeof(buffer), "%.6g", st.slow_burn);
    out += ",\"slow_burn\":";
    out += buffer;
    std::snprintf(buffer, sizeof(buffer), "%.6g", st.budget);
    out += ",\"budget\":";
    out += buffer;
    out += ",\"transitions\":" + std::to_string(st.transitions) + "}";
  }
  out += "]";
  return out;
}

/// The per-state tallies of the status and stats verbs.
std::string job_counts_json(const JobCounts& c) {
  return "\"queued\":" + std::to_string(c.queued) +
         ",\"running\":" + std::to_string(c.running) +
         ",\"done\":" + std::to_string(c.done) +
         ",\"failed\":" + std::to_string(c.failed) +
         ",\"cancelled\":" + std::to_string(c.cancelled);
}

}  // namespace

/// One accepted client connection: its socket, trace lane id, and the
/// thread running handle_connection. `fd` is atomic because the
/// connection thread retires it while run()'s shutdown sweep reads it
/// to shutdown() lingering sockets.
struct Daemon::Connection {
  std::atomic<int> fd{-1};
  int id = 0;
  std::thread thread;
};

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      store_(config_.journal_store),
      runtime_(config_.kernel_threads, config_.variant, config_.tile,
               config_.cache_bytes,
               config_.queue_capacity > 0
                   ? config_.queue_capacity
                   : std::max<std::size_t>(
                         64, 4 * static_cast<std::size_t>(
                                 std::max(1, config_.workers)))),
      governor_(config_.tenant_config) {
  config_.workers = std::max(1, config_.workers);
}

Daemon::~Daemon() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
  if (metrics_fd_ >= 0) {
    ::close(metrics_fd_);
  }
}

int Daemon::start() {
  // The daemon IS the telemetry producer: every serve.* counter,
  // gauge, and latency histogram flows through the gated obs hooks,
  // so a daemon that left the runtime switch off would expose an
  // always-empty /metrics endpoint. Flip it on unconditionally.
  obs::set_enabled(true);
  build_ = obs::build_info();
  build_.simd = core::simd::backend_name(core::simd::active_backend());
  if (!config_.slo_config.empty()) {
    try {
      slo_ = std::make_unique<obs::SloEngine>(
          obs::SloConfig::load_file(config_.slo_config));
    } catch (const obs::JsonError& e) {
      throw std::runtime_error(std::string("--slo-config: ") + e.what());
    }
  }
  if (!config_.flight_dir.empty()) {
    obs::FlightConfig fc;
    fc.dir = config_.flight_dir;
    fc.window_s = config_.flight_window_s;
    fc.build = build_;
    flight_ = std::make_unique<obs::FlightRecorder>(
        std::move(fc), &timeseries_, slo_.get());
    flight_->install_crash_hook();
  }
  if (slo_ != nullptr && flight_ != nullptr) {
    // A new breach cuts a dump; the hook runs on the telemetry thread
    // after the engine lock drops (see SloEngine::evaluate).
    slo_->set_breach_hook([this](const obs::SloStatus&) {
      flight_->dump("slo-breach", uptime_s());
    });
  }

  // Journal replay before the socket opens: nothing can race it.
  const std::vector<std::string> requeued = store_.recover();
  const JobCounts replayed = store_.counts();
  stats_.jobs_replayed =
      replayed.done + replayed.failed + replayed.cancelled;
  stats_.jobs_requeued = requeued.size();
  requeued_ = requeued;

  listen_fd_ = listen_tcp(config_.host, config_.port, 64, "", &port_);
  if (config_.metrics_port >= 0) {
    metrics_fd_ = listen_tcp(config_.host, config_.metrics_port, 16,
                             "metrics ", &metrics_port_);
  }
  return port_;
}

void Daemon::request_drain() {
  draining_.store(true);
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DaemonStats out = stats_;
  out.jobs = store_.counts();
  out.jobs_executed = runtime_.computed();
  out.interrupted = interrupted_.load();
  return out;
}

void Daemon::record_admission_locked(const Job& job, double table_bytes) {
  Admission a;
  a.at = std::chrono::steady_clock::now();
  a.deadline_s = job.deadline_s;
  a.tenant = job.tenant;
  a.table_bytes = table_bytes;
  admitted_[job.id] = std::move(a);
}

void Daemon::release_admission_locked(const std::string& id) {
  const auto it = admitted_.find(id);
  if (it == admitted_.end()) {
    return;
  }
  governor_.finish(it->second.tenant, it->second.table_bytes);
  admitted_.erase(it);
}

bool Daemon::shed_if_expired_locked(const std::string& id) {
  const auto it = admitted_.find(id);
  if (it == admitted_.end() || it->second.deadline_s <= 0.0) {
    return false;
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    it->second.at)
          .count();
  if (waited <= it->second.deadline_s) {
    return false;
  }
  const StoredJob* stored = store_.find(id);
  if (stored == nullptr || stored->state != JobState::kQueued) {
    return false;
  }
  char text[128];
  std::snprintf(text, sizeof(text),
                "deadline_exceeded: queued %.3f s against a %.3f s deadline",
                waited, it->second.deadline_s);
  store_.mark_failed(id, text);
  ++stats_.shed_deadline;
  RRI_OBS_COUNTER("serve.daemon.shed_deadline", 1);
  trace::instant("daemon.deadline_exceeded");
  release_admission_locked(id);
  return true;
}

void Daemon::run() {
  started_at_ = std::chrono::steady_clock::now();
  runtime_.start(
      config_.workers, [this](Runtime::Handle h) { return claim(h); },
      [this](Runtime::Handle, const JobOutcome& o, const std::string& e) {
        return settle(o, e);
      });
  // The telemetry tick always runs (it keeps the runtime gauges and
  // SLO states live for stats/metrics/slo verbs); the HTTP scrape loop
  // only when a metrics port was requested.
  telemetry_thread_ = std::thread([this] { telemetry_loop(); });
  if (metrics_fd_ >= 0) {
    metrics_thread_ = std::thread([this] { metrics_loop(); });
  }
  // Re-enqueue interrupted work from the journal now that workers can
  // drain the queue (the list may exceed the queue capacity). adopt()
  // (not admit()) re-accounts the in-flight budgets without a token
  // draw — a restart must not rate-penalize recovered work.
  for (const std::string& id : requeued_) {
    Runtime::Handle handle = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const StoredJob* stored = store_.find(id);
      if (stored == nullptr) {
        continue;
      }
      Job job = stored->job;
      job.deadline_s = 0.0;  // the original admission clock is gone
      const double table_bytes = job_table_bytes(job);
      record_admission_locked(job, table_bytes);
      governor_.adopt(job.tenant, table_bytes, mono_now_s());
      handle = handle_for_locked(id);
    }
    // push() may block (backpressure) or fail once the queue is closed
    // by drain/interrupt; a false return is fine — the job is journaled
    // as queued and the drain pass (or the next restart) finishes it.
    runtime_.push(handle);
  }
  requeued_.clear();

  accept_loop();

  // ---- shutdown sequence (drain, stop flag, or fail_after) ----
  stop_telemetry_.store(true);
  if (telemetry_thread_.joinable()) {
    telemetry_thread_.join();
  }
  if (metrics_thread_.joinable()) {
    metrics_thread_.join();
  }
  runtime_.join();
  // Whatever is still queued (a submit that raced queue close, or a
  // backlog beyond fail_after) is finished inline — drain means "every
  // accepted job reaches a terminal state before exit". The interrupted
  // path deliberately leaves the backlog queued for the next restart.
  if (!interrupted_.load()) {
    finish_remaining_inline();
  }
  closing_.store(true);
  terminal_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& conn : conns_) {
      if (conn->fd >= 0) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  publish_runtime_gauges();
}

void Daemon::accept_loop() {
  int next_conn_id = 0;
  while (true) {
    if (draining_.load() || interrupted_.load() ||
        (config_.stop_flag != nullptr && config_.stop_flag->load())) {
      draining_.store(true);
      return;
    }
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) {
      continue;  // timeout or EINTR: re-check the stop conditions
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id++;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.connections;
      conns_.push_back(std::move(conn));
    }
    RRI_OBS_COUNTER("serve.daemon.connections", 1);
    raw->thread = std::thread([this, raw] { handle_connection(raw); });
  }
}

bool Daemon::send_frame(Connection* conn, const std::string& payload) {
  const int fd = conn->fd.load();
  std::string bytes = encode_frame(payload);
  if (!config_.chaos.empty()) {
    if (chaos_stall_or_reset(fd)) {
      return false;  // the close at the end of handle_connection RSTs
    }
    if (config_.chaos.draw_split() && bytes.size() > 1) {
      note_chaos("serve.daemon.chaos_splits", "daemon.chaos_split");
      const std::size_t cut = bytes.size() / 2;
      if (!send_all(fd, bytes.substr(0, cut))) {
        return false;
      }
      std::this_thread::yield();
      return send_all(fd, bytes.substr(cut));
    }
  }
  return send_all(fd, bytes);
}

void Daemon::note_chaos(const char* counter, const char* event) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.chaos_events;
  }
  RRI_OBS_COUNTER(counter, 1);
  trace::instant(event);
}

bool Daemon::chaos_stall_or_reset(int fd) {
  if (const int ms = config_.chaos.draw_stall_ms()) {
    note_chaos("serve.daemon.chaos_stalls", "daemon.chaos_stall");
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (!config_.chaos.draw_reset()) {
    return false;
  }
  note_chaos("serve.daemon.chaos_resets", "daemon.chaos_reset");
  arm_reset(fd);
  return true;
}

void Daemon::handle_connection(Connection* conn) {
  // One timeline lane per connection: frame handling (and result-wait
  // blocking) is visible per client in the trace view.
  RRI_TRACE_LANE(trace::kProcDaemon, conn->id);
  const int fd = conn->fd.load();
  FrameReader reader;
  char buffer[65536];
  bool open = true;
  auto last_bytes_at = std::chrono::steady_clock::now();
  while (open) {
    // poll() before recv(): the timeout slice keeps the idle check live
    // and lets run()'s shutdown() wake a quiet connection promptly.
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kConnPollMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (ready == 0) {
      if (config_.idle_timeout_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        last_bytes_at)
                  .count() >= config_.idle_timeout_s) {
        // Slowloris defense: answer once so a well-meaning slow client
        // learns why, then free this thread.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.idle_timeouts;
        }
        RRI_OBS_COUNTER("serve.daemon.idle_timeouts", 1);
        trace::instant("daemon.idle_timeout");
        send_frame(conn, error_payload(
                             "", "", "idle_timeout",
                             "no bytes received for " +
                                 std::to_string(config_.idle_timeout_s) +
                                 " s; closing the connection"));
        break;
      }
      continue;
    }
    // Read-side chaos mirrors a flaky network in front of the daemon.
    if (!config_.chaos.empty() && chaos_stall_or_reset(fd)) {
      break;
    }
    ssize_t n = 0;
    {
      RRI_TRACE_SPAN("daemon.read");
      n = ::recv(fd, buffer, sizeof(buffer), 0);
    }
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (reader.mid_frame()) {
        RRI_OBS_COUNTER("serve.daemon.frames_truncated", 1);
      }
      break;  // peer closed (or shutdown() during drain)
    }
    last_bytes_at = std::chrono::steady_clock::now();
    reader.feed(buffer, static_cast<std::size_t>(n));
    while (open) {
      std::string payload;
      try {
        auto next = reader.next();
        if (!next.has_value()) {
          break;
        }
        payload = std::move(*next);
      } catch (const ProtocolError& e) {
        // Framing is unrecoverable: answer once, then hang up.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.protocol_errors;
        }
        RRI_OBS_COUNTER("serve.daemon.protocol_errors", 1);
        send_frame(conn, error_payload("", "", e.code(), e.what()));
        open = false;
        break;
      }
      RRI_TRACE_SPAN("daemon.handle");
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.frames;
      }
      RRI_OBS_COUNTER("serve.daemon.frames", 1);
      std::string response;
      bool drain = false;
      try {
        const Request req = parse_request(payload, config_.param_defaults);
        response = handle_request(req, &drain);
      } catch (const ProtocolError& e) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.protocol_errors;
        }
        RRI_OBS_COUNTER("serve.daemon.protocol_errors", 1);
        response = error_payload("", "", e.code(), e.what());
      }
      if (!send_frame(conn, response)) {
        open = false;
      }
      if (drain) {
        request_drain();
      }
    }
  }
  ::close(fd);
  conn->fd.store(-1);
}

std::string Daemon::handle_request(const Request& req, bool* drain_out) {
  switch (req.verb) {
    case Verb::kPing:
      return ok_head("ping") + "}\n";
    case Verb::kSubmit:
      return submit_response(req);
    case Verb::kResult:
      return result_response(req);
    case Verb::kStatus: {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!req.id.empty()) {
        const StoredJob* stored = store_.find(req.id);
        if (stored == nullptr) {
          return error_payload("status", req.id, "unknown_id",
                               "no job with id \"" + req.id + "\"");
        }
        return ok_head("status") + ",\"id\":\"" +
               obs::json_escape(req.id) + "\",\"state\":\"" +
               job_state_name(stored->state) + "\"}\n";
      }
      const JobCounts c = store_.counts();
      return ok_head("status") + ",\"jobs\":{" + job_counts_json(c) +
             ",\"total\":" + std::to_string(c.total()) + "}}\n";
    }
    case Verb::kCancel: {
      std::lock_guard<std::mutex> lock(mutex_);
      const StoredJob* stored = store_.find(req.id);
      if (stored == nullptr) {
        return error_payload("cancel", req.id, "unknown_id",
                             "no job with id \"" + req.id + "\"");
      }
      if (store_.cancel(req.id)) {
        release_admission_locked(req.id);
        RRI_OBS_COUNTER("serve.daemon.jobs_cancelled", 1);
        terminal_cv_.notify_all();
        return ok_head("cancel") + ",\"id\":\"" +
               obs::json_escape(req.id) + "\",\"state\":\"cancelled\"}\n";
      }
      return error_payload("cancel", req.id, "not_cancellable",
                           "job is " +
                               std::string(job_state_name(stored->state)) +
                               "; only queued jobs can be cancelled");
    }
    case Verb::kDrain: {
      *drain_out = true;
      const JobCounts c = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        return store_.counts();
      }();
      return ok_head("drain") + ",\"pending\":" +
             std::to_string(c.queued + c.running) + "}\n";
    }
    case Verb::kStats: {
      const double uptime = uptime_s();
      const auto cache_stats = runtime_.cache().stats();
      std::lock_guard<std::mutex> lock(mutex_);
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.3f", uptime);
      std::string out = ok_head("stats");
      out += ",\"uptime_s\":";
      out += buffer;
      out += ",\"workers\":" + std::to_string(config_.workers);
      out += ",\"connections\":" + std::to_string(stats_.connections);
      out += ",\"frames\":" + std::to_string(stats_.frames);
      out += ",\"jobs\":{" + job_counts_json(store_.counts()) + "}";
      out += ",\"submitted\":" + std::to_string(stats_.jobs_submitted);
      out += ",\"rejected\":" + std::to_string(stats_.jobs_rejected);
      out += ",\"executed\":" + std::to_string(runtime_.computed());
      out += ",\"replayed\":" + std::to_string(stats_.jobs_replayed);
      out += ",\"requeued\":" + std::to_string(stats_.jobs_requeued);
      out += ",\"cache\":{\"hits\":" + std::to_string(cache_stats.hits) +
             ",\"misses\":" + std::to_string(cache_stats.misses) +
             ",\"entries\":" + std::to_string(cache_stats.entries) +
             ",\"bytes\":" + std::to_string(cache_stats.bytes_in_use) + "}";
      out += ",\"queue_depth\":" + std::to_string(runtime_.queue_depth());
      out += ",\"shed\":{\"quota\":" +
             std::to_string(stats_.quota_rejections) + ",\"overload\":" +
             std::to_string(stats_.shed_overload) + ",\"deadline\":" +
             std::to_string(stats_.shed_deadline) + ",\"idle_timeouts\":" +
             std::to_string(stats_.idle_timeouts) + "}";
      out += ",\"chaos_events\":" + std::to_string(stats_.chaos_events);
      out += ",\"tenants\":{";
      bool first_tenant = true;
      for (const auto& [name, usage] : governor_.usage()) {
        if (!first_tenant) {
          out += ",";
        }
        first_tenant = false;
        char bytes_buf[32];
        std::snprintf(bytes_buf, sizeof(bytes_buf), "%.0f",
                      usage.inflight_bytes);
        out += "\"" +
               obs::json_escape(name.empty() ? std::string("anonymous")
                                             : name) +
               "\":{\"admitted\":" + std::to_string(usage.admitted) +
               ",\"rejected\":" + std::to_string(usage.rejected) +
               ",\"finished\":" + std::to_string(usage.finished) +
               ",\"inflight\":" + std::to_string(usage.inflight_jobs) +
               ",\"inflight_bytes\":" + bytes_buf + "}";
      }
      out += "}";
      out += ",\"build\":{\"version\":\"" + obs::json_escape(build_.version) +
             "\",\"compiler\":\"" + obs::json_escape(build_.compiler) +
             "\",\"simd\":\"" + obs::json_escape(build_.simd) + "\"}";
      if (slo_ != nullptr) {
        out += ",\"slo\":";
        out += slo_json(slo_->status());
      }
      out += ",\"draining\":";
      out += draining_.load() ? "true" : "false";
      out += "}\n";
      return out;
    }
    case Verb::kMetrics: {
      const std::string body = metrics_exposition();
      std::string out = ok_head("metrics");
      out += ",\"content_type\":\"";
      out += obs::prometheus_content_type();
      out += "\",\"body\":\"";
      out += obs::json_escape(body);
      out += "\"}\n";
      return out;
    }
    case Verb::kSlo: {
      std::string out = ok_head("slo");
      out += ",\"objectives\":";
      out += slo_ != nullptr ? slo_json(slo_->status()) : std::string("[]");
      out += "}\n";
      return out;
    }
  }
  return error_payload("", "", "bad_request", "unhandled verb");
}

std::string Daemon::submit_response(const Request& req) {
  const double table_bytes = job_table_bytes(req.job);
  Runtime::Handle handle = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_.load()) {
      return error_payload("submit", req.id, "draining",
                           "daemon is draining and no longer accepts jobs");
    }
    const StoredJob* existing = store_.find(req.id);
    if (existing != nullptr) {
      // Idempotent resubmission (e.g. the same manifest replayed after a
      // restart) — as long as it is the same job.
      if (job_key_text(existing->job) == job_key_text(req.job)) {
        return ok_head("submit") + ",\"id\":\"" +
               obs::json_escape(req.id) + "\",\"state\":\"" +
               job_state_name(existing->state) +
               "\",\"resubmitted\":true}\n";
      }
      return error_payload("submit", req.id, "id_conflict",
                           "id \"" + req.id +
                               "\" already names a different job");
    }
    // Admission control: the --max-mem table model, applied before any
    // memory is committed. The error frame carries the numbers the
    // client needs to right-size or shard the request.
    if (config_.job_budget_bytes > 0.0 &&
        table_bytes > config_.job_budget_bytes) {
      ++stats_.jobs_rejected;
      RRI_OBS_COUNTER("serve.daemon.jobs_rejected", 1);
      char need[32];
      char have[32];
      std::snprintf(need, sizeof(need), "%.2f",
                    table_bytes / (1024.0 * 1024.0 * 1024.0));
      std::snprintf(have, sizeof(have), "%.2f",
                    config_.job_budget_bytes / (1024.0 * 1024.0 * 1024.0));
      return error_payload(
          "submit", req.id, "over_budget",
          "job (" + std::to_string(req.job.s1.size()) + " x " +
              std::to_string(req.job.s2.size()) + ") would need " + need +
              " GiB of table at " +
              std::to_string(job_elem_bytes(req.job)) +
              " bytes/cell; the admission budget is " + std::string(have) +
              " GiB (--max-mem)");
    }
    // Queue-depth shedding: beyond the high watermark the daemon is
    // already saturated, so refuse fast with a hint scaled to how much
    // backlog each worker holds, instead of stacking blocked submits
    // behind the queue's backpressure.
    const std::size_t depth = runtime_.queue_depth();
    if (config_.shed_queue_depth > 0 && depth >= config_.shed_queue_depth) {
      ++stats_.shed_overload;
      RRI_OBS_COUNTER("serve.daemon.shed_overload", 1);
      trace::instant("daemon.shed_overload");
      const double retry_after_s = std::clamp(
          0.05 * static_cast<double>(depth) /
              static_cast<double>(std::max(1, config_.workers)),
          0.05, 5.0);
      return error_payload("submit", req.id, "overloaded",
                           "queue depth " + std::to_string(depth) +
                               " is at the shed watermark of " +
                               std::to_string(config_.shed_queue_depth),
                           retry_after_s);
    }
    // Per-tenant quotas, priced with the same table model.
    const QuotaDecision decision =
        governor_.admit(req.job.tenant, table_bytes, mono_now_s());
    if (!decision.admitted) {
      ++stats_.quota_rejections;
      RRI_OBS_COUNTER("serve.daemon.quota_rejections", 1);
      trace::instant("daemon.quota_exceeded");
      const std::string who =
          req.job.tenant.empty() ? "anonymous" : req.job.tenant;
      return error_payload("submit", req.id, "quota_exceeded",
                           "tenant \"" + who + "\" " + decision.reason +
                               " quota: " + decision.message,
                           decision.retry_after_s);
    }
    store_.submit(req.job);  // journaled before the ack below
    record_admission_locked(req.job, table_bytes);
    handle = handle_for_locked(req.id);
    ++stats_.jobs_submitted;
    RRI_OBS_COUNTER("serve.daemon.jobs_submitted", 1);
  }
  // push() may block (backpressure) or fail once the queue is closed by
  // drain/interrupt; a false return is fine — the job is journaled as
  // queued and the drain pass (or the next restart) finishes it.
  runtime_.push(handle);
  return ok_head("submit") + ",\"id\":\"" + obs::json_escape(req.id) +
         "\",\"state\":\"queued\",\"key\":\"" +
         codec::key_hex(job_key(req.job)) + "\"}\n";
}

std::string Daemon::result_response(const Request& req) {
  std::unique_lock<std::mutex> lock(mutex_);
  const StoredJob* stored = store_.find(req.id);
  if (stored == nullptr) {
    return error_payload("result", req.id, "unknown_id",
                         "no job with id \"" + req.id + "\"");
  }
  if (req.wait) {
    terminal_cv_.wait(lock, [&] {
      stored = store_.find(req.id);
      return stored == nullptr || is_terminal(stored->state) ||
             closing_.load();
    });
    if (stored == nullptr) {
      return error_payload("result", req.id, "unknown_id",
                           "job vanished while waiting");
    }
  }
  switch (stored->state) {
    case JobState::kDone:
      return ok_head("result") + ",\"id\":\"" + obs::json_escape(req.id) +
             "\"," + codec::result_fields(stored->outcome) +
             ",\"state\":\"done\"}\n";
    case JobState::kFailed:
      // Deadline sheds are failures with a dedicated code so a client
      // can distinguish "too slow, resubmit with more headroom" from a
      // kernel error.
      if (stored->error.rfind("deadline_exceeded", 0) == 0) {
        return error_payload("result", req.id, "deadline_exceeded",
                             stored->error);
      }
      return error_payload("result", req.id, "failed", stored->error);
    case JobState::kCancelled:
      return error_payload("result", req.id, "cancelled",
                           "job was cancelled");
    case JobState::kQueued:
    case JobState::kRunning:
      return error_payload(
          "result", req.id,
          closing_.load() && req.wait ? "shutdown" : "not_done",
          "job is " + std::string(job_state_name(stored->state)));
  }
  return error_payload("result", req.id, "bad_request", "unreachable");
}

Runtime::Handle Daemon::handle_for_locked(const std::string& id) {
  handle_ids_.emplace(next_handle_, id);
  return next_handle_++;
}

std::optional<Job> Daemon::claim(Runtime::Handle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto handle_it = handle_ids_.find(handle);
  const std::string id = std::move(handle_it->second);
  handle_ids_.erase(handle_it);
  if (interrupted_.load()) {
    return std::nullopt;  // drain the queue without executing (fail_after)
  }
  const auto admitted_it = admitted_.find(id);
  if (admitted_it != admitted_.end()) {
    const double waited =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      admitted_it->second.at)
            .count();
    RRI_OBS_LATENCY("serve.queue_wait_s", waited);
    if (!admitted_it->second.tenant.empty()) {
      obs::record_latency(
          ("serve.queue_wait_s.tenant." + admitted_it->second.tenant).c_str(),
          waited);
    }
  }
  // Deadline shed at dequeue: a job that expired while queued is failed
  // here instead of burning a worker on an answer nobody is waiting for
  // anymore.
  if (shed_if_expired_locked(id)) {
    ++finished_this_run_;
    terminal_cv_.notify_all();
    return std::nullopt;
  }
  if (!store_.mark_running(id)) {
    return std::nullopt;  // cancelled (or otherwise settled) while queued
  }
  return store_.find(id)->job;
}

bool Daemon::settle(const JobOutcome& outcome, const std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error.empty()) {
      store_.mark_done(outcome.id, outcome);
    } else {
      store_.mark_failed(outcome.id, error);
      RRI_OBS_COUNTER("serve.daemon.jobs_failed", 1);
    }
    release_admission_locked(outcome.id);
    ++finished_this_run_;
    if (config_.fail_after >= 0 &&
        finished_this_run_ >= static_cast<std::size_t>(config_.fail_after)) {
      interrupted_.store(true);
    }
  }
  RRI_OBS_COUNTER("serve.jobs_served", 1);
  terminal_cv_.notify_all();
  return interrupted_.load();
}

double Daemon::uptime_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

void Daemon::publish_runtime_gauges() {
  obs::set_counter("serve.daemon.uptime_s", uptime_s());
  obs::set_counter("serve.daemon.workers",
                   static_cast<double>(config_.workers));
  obs::set_counter("serve.daemon.queue_depth",
                   static_cast<double>(runtime_.queue_depth()));
  // Per-tenant tallies: the same gauges the shutdown path writes, kept
  // live so a scrape mid-run sees current numbers (acceptance criterion
  // for the telemetry-smoke job).
  for (const auto& [name, usage] : governor_.usage()) {
    const std::string prefix =
        "serve.tenant." + (name.empty() ? std::string("anonymous") : name);
    obs::set_counter((prefix + ".admitted").c_str(),
                     static_cast<double>(usage.admitted));
    obs::set_counter((prefix + ".rejected").c_str(),
                     static_cast<double>(usage.rejected));
    obs::set_counter((prefix + ".finished").c_str(),
                     static_cast<double>(usage.finished));
  }
}

std::string Daemon::metrics_exposition() {
  publish_runtime_gauges();
  obs::PrometheusOptions opts;
  opts.build = build_;
  return obs::prometheus_text(opts);
}

void Daemon::telemetry_loop() {
  const double interval =
      config_.telemetry_interval_s > 0.0 ? config_.telemetry_interval_s : 1.0;
  double next_tick = 0.0;  // sample immediately so early scrapes see data
  while (!stop_telemetry_.load()) {
    const double now = uptime_s();
    if (now >= next_tick) {
      publish_runtime_gauges();
      timeseries_.sample_now(now);
      if (slo_ != nullptr) {
        slo_->evaluate(now);
      }
      next_tick = now + interval;
    }
    if (config_.flight_flag != nullptr && config_.flight_flag->load() &&
        flight_ != nullptr) {
      config_.flight_flag->store(false);
      flight_->dump("sigusr2", now);
    }
    // Short sleep slices keep shutdown and SIGUSR2 latency bounded
    // without burning a core between ticks.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void Daemon::metrics_loop() {
  while (!stop_telemetry_.load()) {
    pollfd pfd{};
    pfd.fd = metrics_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    // One short-lived HTTP/1.0 exchange per connection, served inline:
    // scrapes are rare (seconds apart) and the exposition is small, so
    // a serial loop cannot back up. Read until the blank line ending
    // the request head (or 4 KiB, whichever comes first).
    std::string head;
    char buffer[1024];
    while (head.size() < 4096 && head.find("\r\n\r\n") == std::string::npos &&
           head.find("\n\n") == std::string::npos) {
      pollfd rfd{};
      rfd.fd = fd;
      rfd.events = POLLIN;
      if (::poll(&rfd, 1, 1000) <= 0) {
        break;
      }
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        break;
      }
      head.append(buffer, static_cast<std::size_t>(n));
    }
    const bool is_get_metrics =
        head.rfind("GET /metrics ", 0) == 0 ||
        head.rfind("GET /metrics\r", 0) == 0 ||
        head.rfind("GET /metrics\n", 0) == 0;
    std::string response;
    if (is_get_metrics) {
      const std::string body = metrics_exposition();
      response = "HTTP/1.0 200 OK\r\nContent-Type: ";
      response += obs::prometheus_content_type();
      response += "\r\nContent-Length: " + std::to_string(body.size());
      response += "\r\nConnection: close\r\n\r\n";
      response += body;
      RRI_OBS_COUNTER("serve.daemon.metrics_scrapes", 1);
    } else {
      const std::string body = "only GET /metrics is served here\n";
      response = "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\n";
      response += "Content-Length: " + std::to_string(body.size());
      response += "\r\nConnection: close\r\n\r\n";
      response += body;
    }
    send_all(fd, response);
    ::close(fd);
  }
}

void Daemon::finish_remaining_inline() {
  // The store, not the queue, is the source of truth for accepted work:
  // run its oldest queued job until none is left (claim sheds expired
  // ones; deadlines hold through a drain too).
  for (;;) {
    Runtime::Handle handle = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::vector<std::string> queued = store_.queued_ids();
      if (queued.empty() || interrupted_.load()) {
        return;
      }
      handle = handle_for_locked(queued.front());
    }
    runtime_.run_one(handle);
  }
}

}  // namespace rri::serve
