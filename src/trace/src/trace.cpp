#include "rri/trace/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

namespace rri::trace {

namespace {

std::atomic<bool> g_enabled{false};

/// Trace epoch: all timestamps are nanoseconds since this point, so
/// every serialized ts is non-negative by construction.
const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  return end != text ? static_cast<std::size_t>(v) : fallback;
}

std::atomic<std::size_t> g_default_capacity{
    env_size("RRI_TRACE_CAPACITY", 65536)};

/// Spans shorter than this are counted (filtered) but not stored —
/// the knob that keeps deep traces of the O(M^3) kernel loops from
/// drowning the ring in sub-microsecond slivers.
const std::int64_t g_min_span_ns =
    static_cast<std::int64_t>(env_size("RRI_TRACE_MIN_US", 0)) * 1000;

std::atomic<std::uint64_t> g_flow_ids{0};

enum class Kind : std::uint8_t { kSpan, kInstant, kFlowOut, kFlowIn };

struct Event {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t flow_id = 0;
  Lane lane;
  Kind kind = Kind::kSpan;
};

/// One open (not yet closed) span on a thread's stack.
struct OpenSpan {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  Lane lane;
};

inline constexpr int kMaxDepth = 64;

/// Single-writer event ring (the owning thread); readers only touch it
/// at quiescence (write_chrome_json / stats / reset). The ring is
/// allocated by the first recorded event, so a thread that only sets its
/// lane (a serve worker with tracing off) reserves no event storage.
struct ThreadBuffer {
  explicit ThreadBuffer(int tid, std::size_t cap)
      : reg_tid(tid), capacity(cap == 0 ? 1 : cap) {}

  void push(const Event& e) noexcept {
    if (ring.empty()) {
      ring.resize(capacity);
    }
    if (count < ring.size()) {
      ring[(head + count) % ring.size()] = e;
      ++count;
    } else {
      ring[head] = e;  // drop-oldest
      head = (head + 1) % ring.size();
      ++dropped;
    }
  }

  int reg_tid;
  std::size_t capacity;
  std::vector<Event> ring;
  std::size_t head = 0;
  std::size_t count = 0;
  std::size_t dropped = 0;
  std::size_t filtered = 0;
  OpenSpan stack[kMaxDepth];
  int depth = 0;
};

struct BufferRegistry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 0;
};

BufferRegistry& registry() {
  // Leaked on purpose (same reasoning as obs::Registry): exit hooks
  // serialize after static destruction would otherwise have run.
  static BufferRegistry* instance = new BufferRegistry;
  return *instance;
}

/// Thread-local state: the owned ring plus the lane override. The
/// shared_ptr keeps a finished thread's events alive in the registry
/// until serialization.
struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;
  Lane lane;

  ThreadState() {
    BufferRegistry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    buffer = std::make_shared<ThreadBuffer>(
        reg.next_tid++, g_default_capacity.load(std::memory_order_relaxed));
    reg.buffers.push_back(buffer);
    lane = Lane{kProcMain, buffer->reg_tid};
  }
};

ThreadState& state() {
  thread_local ThreadState s;
  return s;
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

Lane current_lane() noexcept { return state().lane; }

void set_default_capacity(std::size_t spans) noexcept {
  g_default_capacity.store(spans == 0 ? 1 : spans,
                           std::memory_order_relaxed);
}

std::size_t default_capacity() noexcept {
  return g_default_capacity.load(std::memory_order_relaxed);
}

void begin_span(const char* name) noexcept {
  ThreadState& s = state();
  ThreadBuffer& buf = *s.buffer;
  if (buf.depth >= kMaxDepth) {
    ++buf.depth;  // too deep: count the level so end_span stays paired
    return;
  }
  buf.stack[buf.depth++] = OpenSpan{name, now_ns(), s.lane};
}

void end_span() noexcept {
  ThreadBuffer& buf = *state().buffer;
  if (buf.depth == 0) {
    return;  // unmatched end (e.g. tracing enabled mid-scope)
  }
  if (buf.depth > kMaxDepth) {
    --buf.depth;  // closing a level that was too deep to record
    return;
  }
  const OpenSpan open = buf.stack[--buf.depth];
  const std::int64_t dur = now_ns() - open.start_ns;
  if (dur < g_min_span_ns) {
    ++buf.filtered;
    return;
  }
  Event e;
  e.name = open.name;
  e.ts_ns = open.start_ns;
  e.dur_ns = dur;
  e.lane = open.lane;
  e.kind = Kind::kSpan;
  buf.push(e);
}

void instant(const char* name) noexcept {
  if (!enabled()) {
    return;
  }
  ThreadState& s = state();
  Event e;
  e.name = name;
  e.ts_ns = now_ns();
  e.lane = s.lane;
  e.kind = Kind::kInstant;
  s.buffer->push(e);
}

std::uint64_t next_flow_id() noexcept {
  return g_flow_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

namespace {
void record_flow(const char* name, std::uint64_t id, Kind kind) noexcept {
  if (!enabled()) {
    return;
  }
  ThreadState& s = state();
  Event e;
  e.name = name;
  e.ts_ns = now_ns();
  e.flow_id = id;
  e.lane = s.lane;
  e.kind = kind;
  s.buffer->push(e);
}
}  // namespace

void flow_out(const char* name, std::uint64_t id) noexcept {
  record_flow(name, id, Kind::kFlowOut);
}

void flow_in(const char* name, std::uint64_t id) noexcept {
  record_flow(name, id, Kind::kFlowIn);
}

LaneScope::LaneScope(int pid, int tid) noexcept : saved_(state().lane) {
  state().lane = Lane{pid, tid};
}

LaneScope::~LaneScope() { state().lane = saved_; }

TraceStats stats() {
  TraceStats out;
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    out.recorded += buf->count;
    out.dropped += buf->dropped;
    out.filtered += buf->filtered;
    out.reserved += buf->ring.size();
  }
  return out;
}

void reset() {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buf : reg.buffers) {
    buf->head = 0;
    buf->count = 0;
    buf->dropped = 0;
    buf->filtered = 0;
    buf->depth = 0;
  }
}

// ------------------------------------------------------ serialization

namespace {

/// Minimal JSON string escaping (span names are C identifiers in
/// practice, but never trust an invariant a compiler cannot see).
void write_escaped(std::ostream& out, const char* text) {
  out << '"';
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_us(std::ostream& out, std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out << buf;
}

const char* process_name(int pid) {
  switch (pid) {
    case kProcMain: return "main + OpenMP threads";
    case kProcRanks: return "mpisim ranks";
    case kProcServe: return "serve workers";
  }
  return "other";
}

void write_thread_name(std::ostream& out, Lane lane) {
  char buf[48];
  switch (lane.pid) {
    case kProcRanks:
      std::snprintf(buf, sizeof(buf), "rank-%d", lane.tid);
      break;
    case kProcServe:
      std::snprintf(buf, sizeof(buf), "worker-%d", lane.tid);
      break;
    default:
      if (lane.tid == 0) {
        std::snprintf(buf, sizeof(buf), "main");
      } else {
        std::snprintf(buf, sizeof(buf), "thread-%d", lane.tid);
      }
  }
  out << '"' << buf << '"';
}

void write_event(std::ostream& out, const Event& e) {
  out << "{\"name\":";
  write_escaped(out, e.name);
  switch (e.kind) {
    case Kind::kSpan:
      out << ",\"ph\":\"X\",\"cat\":\"span\",\"dur\":";
      write_us(out, e.dur_ns);
      break;
    case Kind::kInstant:
      out << ",\"ph\":\"i\",\"cat\":\"mark\",\"s\":\"t\"";
      break;
    case Kind::kFlowOut:
      out << ",\"ph\":\"s\",\"cat\":\"flow\",\"id\":" << e.flow_id;
      break;
    case Kind::kFlowIn:
      out << ",\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flow\",\"id\":"
          << e.flow_id;
      break;
  }
  out << ",\"pid\":" << e.lane.pid << ",\"tid\":" << e.lane.tid
      << ",\"ts\":";
  write_us(out, e.ts_ns);
  out << "}";
}

}  // namespace

void write_chrome_json(std::ostream& out) {
  BufferRegistry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);

  // Lanes observed across every buffer (a thread can have recorded on
  // several lanes via LaneScope), for the metadata naming pass.
  std::vector<Lane> lanes;
  std::vector<int> pids;
  const auto note_lane = [&](Lane lane) {
    for (const Lane& seen : lanes) {
      if (seen.pid == lane.pid && seen.tid == lane.tid) {
        return;
      }
    }
    lanes.push_back(lane);
    for (const int pid : pids) {
      if (pid == lane.pid) {
        return;
      }
    }
    pids.push_back(lane.pid);
  };
  std::size_t dropped = 0;
  std::size_t filtered = 0;
  for (const auto& buf : reg.buffers) {
    dropped += buf->dropped;
    filtered += buf->filtered;
    for (std::size_t k = 0; k < buf->count; ++k) {
      note_lane(buf->ring[(buf->head + k) % buf->ring.size()].lane);
    }
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };
  for (const int pid : pids) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << process_name(pid)
        << "\"}}";
    sep();
    out << "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"sort_index\":" << pid << "}}";
  }
  for (const Lane& lane : lanes) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << lane.pid
        << ",\"tid\":" << lane.tid << ",\"args\":{\"name\":";
    write_thread_name(out, lane);
    out << "}}";
  }
  for (const auto& buf : reg.buffers) {
    for (std::size_t k = 0; k < buf->count; ++k) {
      sep();
      write_event(out, buf->ring[(buf->head + k) % buf->ring.size()]);
    }
  }
  out << "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";

  const HwSummary hw = read_hw();
  out << "\"hw_backend\":\"" << hw_backend_name(hw.backend) << "\"";
  if (hw.valid()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"hw_cycles\":%.0f,"
                  "\"hw_instructions\":%.0f,\"hw_ipc\":%.3f",
                  hw.cycles, hw.instructions, hw.ipc());
    out << buf;
  }
  out << ",\"dropped_spans\":" << dropped
      << ",\"filtered_spans\":" << filtered << ",\"clock\":\"steady\"}}"
      << '\n';
}

std::string to_chrome_json() {
  std::ostringstream ss;
  write_chrome_json(ss);
  return ss.str();
}

}  // namespace rri::trace
