#ifndef RRI_SERVE_PROTOCOL_HPP
#define RRI_SERVE_PROTOCOL_HPP

/// \file protocol.hpp
/// The rri_served wire protocol: length-prefixed JSONL frames. One
/// frame is a 4-byte big-endian payload length followed by exactly that
/// many bytes of UTF-8 — one JSON object per frame, newline-terminated
/// by convention (so a frame stream with the prefixes stripped is valid
/// JSONL). The prefix makes framing independent of payload content:
/// the reader never scans for delimiters, never over-reads past a
/// declared frame, and rejects a declared length over the frame budget
/// before buffering a single payload byte.
///
/// Request verbs: submit / status / result / cancel / drain / stats /
/// ping / metrics / slo. Responses always carry "ok" (true/false) and
/// echo "op"; error
/// frames add machine-readable "code" plus a human "error" message.
/// The full grammar is documented in docs/serving.md.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "rri/serve/job.hpp"

namespace rri::serve {

/// Hard per-frame payload budget. Generous against real requests (two
/// strands plus params is a few KiB) while bounding what one client can
/// make the daemon buffer.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Bytes of big-endian length prefix in front of every payload.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Malformed frame or request. Carries a machine-readable `code()`
/// ("oversized_frame", "bad_json", "bad_request", ...) suitable for an
/// error frame's "code" field.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}
  const std::string& code() const noexcept { return code_; }

 private:
  std::string code_;
};

/// Wrap one payload in a length prefix. Throws ProtocolError
/// ("oversized_frame") when the payload exceeds `max_frame`.
std::string encode_frame(const std::string& payload,
                         std::size_t max_frame = kMaxFrameBytes);

/// Write every byte to socket `fd`, retrying on EINTR. False on a send
/// error (the peer is gone).
bool send_all(int fd, const std::string& bytes);

/// Incremental frame extractor for one connection. Feed raw bytes as
/// they arrive; next() yields complete payloads in order. A declared
/// length over the budget poisons the reader (the stream offset is
/// unrecoverable) — every later next() rethrows, so a connection
/// handler can fail the client once and close.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  /// Append bytes received from the peer.
  void feed(const char* data, std::size_t size);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Next complete payload, or nullopt when more bytes are needed.
  /// Throws ProtocolError ("oversized_frame") on a poisoned stream.
  std::optional<std::string> next();

  /// True when the fed bytes end inside a frame (header or payload) —
  /// a peer that disconnects now did so mid-frame.
  bool mid_frame() const noexcept { return !buffer_.empty(); }

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  std::size_t max_frame_;
  bool poisoned_ = false;
};

/// The request verbs rri_served understands.
enum class Verb {
  kSubmit,  ///< enqueue one job (id, s1, s2, optional params)
  kStatus,  ///< one job's state (with id) or per-state counts (without)
  kResult,  ///< a finished job's outcome; "wait":true blocks until terminal
  kCancel,  ///< withdraw a queued job
  kDrain,   ///< stop intake; finish in-flight work; daemon exits 0
  kStats,   ///< daemon-level counters (uptime, connections, cache, jobs)
  kPing,    ///< liveness probe
  kMetrics, ///< Prometheus text exposition of the obs registry
  kSlo,     ///< live SLO objective states (burn rates, ok/warning/breach)
};
const char* verb_name(Verb verb) noexcept;

/// One parsed request frame.
struct Request {
  Verb verb = Verb::kPing;
  std::string id;     ///< submit/result/cancel (required), status (optional)
  bool wait = false;  ///< result: block until the job reaches a terminal state
  Job job;            ///< submit only; job.id == id
};

/// Parse + validate one request payload against the protocol grammar.
/// `defaults` seeds submit params exactly like manifest ingestion.
/// Throws ProtocolError with code "bad_json" (not JSON), "bad_request"
/// (wrong shape, unknown op, missing fields), or "bad_sequence"
/// (unparseable strand text).
Request parse_request(const std::string& payload,
                      const JobParams& defaults = {});

/// Serialize a submit request for `job` — what DaemonClient and
/// rri_client put on the wire (before the length prefix).
std::string submit_payload(const Job& job);

/// One-line error payload: {"ok":false,"op":...,"id":...,"code":...,
/// "error":...} ("id" omitted when empty).
std::string error_payload(const std::string& op, const std::string& id,
                          const std::string& code,
                          const std::string& message);

/// Error payload with a "retry_after_s" hint — quota_exceeded and
/// overloaded refusals tell the client when resubmitting may succeed.
/// A retrying DaemonClient honors the hint; resubmission is safe
/// because submits are idempotent via job_key_text.
std::string error_payload(const std::string& op, const std::string& id,
                          const std::string& code,
                          const std::string& message, double retry_after_s);

}  // namespace rri::serve

#endif  // RRI_SERVE_PROTOCOL_HPP
