#ifndef RRI_TRACE_TRACE_HPP
#define RRI_TRACE_TRACE_HPP

/// \file trace.hpp
/// Per-event timeline recording (rri::trace): a low-overhead span
/// recorder whose output loads into chrome://tracing / Perfetto.
///
/// Where rri::obs answers "how much time did each phase take in
/// aggregate", rri::trace answers "where did each thread spend it" —
/// one lane per OpenMP thread inside the solver variants, one lane per
/// simulated BSP rank in mpisim (supersteps as spans, sends/recvs as
/// flow events), one lane per batch-serving worker (queue-wait vs.
/// execute). rri::obs::ScopedPhase piggy-backs here automatically, so
/// every existing RRI_OBS_PHASE hook point already emits a span when
/// tracing is on.
///
/// Recording is lock-free on the hot path: each thread owns a
/// fixed-capacity ring buffer (drop-oldest, with a dropped-span
/// counter), allocated on first use and registered with a global list
/// only once. A span record is two steady_clock reads plus one slab
/// write. Span names must be string literals (or otherwise outlive the
/// trace) — they are stored by pointer, never copied.
///
/// Serialization (write_chrome_json) walks every registered buffer and
/// must only run at quiescence — after parallel regions have joined,
/// or from the process-exit hook. That is the one cross-thread touch
/// point and it is the reader's responsibility, not the recorder's.
///
/// Activation mirrors rri::obs: compile-time via RRI_TRACE_ENABLED
/// (tied to the RRI_OBS CMake switch), run-time via set_enabled() /
/// the RRI_TRACE=path.json environment variable (handled by rri_obs's
/// env hook, which also enables obs recording so the phase scopes
/// fire).

#ifndef RRI_TRACE_ENABLED
#define RRI_TRACE_ENABLED 1
#endif

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

namespace rri::trace {

/// Fixed lane namespaces (Chrome trace "pid"): every event belongs to
/// one timeline process so the viewer groups related lanes together.
inline constexpr int kProcMain = 1;   ///< main thread + OpenMP workers
inline constexpr int kProcRanks = 2;  ///< simulated BSP ranks (mpisim)
inline constexpr int kProcServe = 3;  ///< batch-serving workers
inline constexpr int kProcDaemon = 4;  ///< rri_served connection handlers

/// A timeline lane: (pid, tid) in Chrome trace terms.
struct Lane {
  int pid = kProcMain;
  int tid = 0;
};

/// Runtime toggle (off by default; RRI_TRACE=path turns it on at load
/// via the rri_obs environment hook).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// The lane events recorded by this thread currently land on. Default:
/// kProcMain with a tid assigned in thread-registration order (main
/// thread first).
Lane current_lane() noexcept;

/// Ring capacity (spans per thread) for buffers created *after* the
/// call. Default 65536, overridable with RRI_TRACE_CAPACITY.
void set_default_capacity(std::size_t spans) noexcept;
std::size_t default_capacity() noexcept;

/// Open / close a span on this thread's current lane. Nesting is
/// tracked per thread (closing order must mirror opening order, which
/// RAII guarantees); end_span with nothing open is a no-op. Spans
/// shorter than min_span_ns (RRI_TRACE_MIN_US) are counted but not
/// stored.
void begin_span(const char* name) noexcept;
void end_span() noexcept;

/// A zero-duration marker on the current lane.
void instant(const char* name) noexcept;

/// Flow events: a directed arrow between two spans, e.g. a BSP send
/// and the receive that consumes it. Allocate an id once per logical
/// message with next_flow_id(), record flow_out at the producer and
/// flow_in (same id) at the consumer.
std::uint64_t next_flow_id() noexcept;
void flow_out(const char* name, std::uint64_t id) noexcept;
void flow_in(const char* name, std::uint64_t id) noexcept;

/// RAII span; cheap when disabled (one relaxed atomic load).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (enabled()) {
      begin_span(name);
      active_ = true;
    }
  }
  ~ScopedSpan() {
    if (active_) {
      end_span();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
};

/// RAII lane override for this thread: mpisim sets (kProcRanks, rank)
/// around each simulated rank's turn, the serve engine sets
/// (kProcServe, worker) for a worker thread's whole loop. Restores the
/// previous lane on destruction. Active even while tracing is disabled
/// (it only touches a thread_local), so a mid-run set_enabled(true)
/// lands events on the right lane.
class LaneScope {
 public:
  LaneScope(int pid, int tid) noexcept;
  ~LaneScope();
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  Lane saved_;
};

struct TraceStats {
  std::size_t recorded = 0;  ///< events currently held across buffers
  std::size_t dropped = 0;   ///< overwritten by ring wrap (drop-oldest)
  std::size_t filtered = 0;  ///< discarded by the min-duration filter
  /// Ring slots allocated across buffers; a thread's ring is allocated
  /// by its first recorded event.
  std::size_t reserved = 0;
};
TraceStats stats();

/// Drop every recorded event and zero the counters. Buffers stay
/// registered (threads keep their lanes). Call at quiescence only.
void reset();

// ------------------------------------------------------ hw counters
/// Hardware-counter summary attached to the trace (and mirrored into
/// obs counters by the CLIs). Backend 0 = unavailable, 1 = perf_event.
struct HwSummary {
  int backend = 0;
  double cycles = 0.0;
  double instructions = 0.0;
  double task_clock_ns = 0.0;

  bool valid() const noexcept { return backend != 0; }
  double ipc() const noexcept {
    return cycles > 0.0 ? instructions / cycles : 0.0;
  }
};
const char* hw_backend_name(int backend) noexcept;

/// Start the process-global hardware sampler (idempotent). Probes
/// perf_event_open on Linux; anywhere it cannot (non-Linux, seccomp,
/// perf_event_paranoid, RRI_HW=off) the summary degrades to
/// backend=unavailable and everything else keeps working.
void start_hw() noexcept;

/// Read the sampler without stopping it (zeros when unavailable).
HwSummary read_hw() noexcept;

// ---------------------------------------------------- serialization
/// Serialize every registered buffer as Chrome trace-event JSON
/// ({"traceEvents": [...], ...}): complete "X" events with ts/dur in
/// microseconds since the trace epoch, metadata naming each lane, flow
/// "s"/"f" arrows, and an otherData block carrying dropped-span
/// accounting plus the hw-counter summary. Call at quiescence.
void write_chrome_json(std::ostream& out);
std::string to_chrome_json();

}  // namespace rri::trace

#if RRI_TRACE_ENABLED
#define RRI_TRACE_CONCAT_IMPL(a, b) a##b
#define RRI_TRACE_CONCAT(a, b) RRI_TRACE_CONCAT_IMPL(a, b)
/// Span over the rest of the block on this thread's lane. `name` must
/// be a string literal.
#define RRI_TRACE_SPAN(name) \
  ::rri::trace::ScopedSpan RRI_TRACE_CONCAT(rri_trace_span_, __LINE__)(name)
/// Route this thread's events to lane (pid, tid) for the block.
#define RRI_TRACE_LANE(pid, tid) \
  ::rri::trace::LaneScope RRI_TRACE_CONCAT(rri_trace_lane_, __LINE__)((pid), (tid))
#else
#define RRI_TRACE_SPAN(name) ((void)0)
#define RRI_TRACE_LANE(pid, tid) ((void)0)
#endif

#endif  // RRI_TRACE_TRACE_HPP
