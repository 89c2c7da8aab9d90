#ifndef RRI_SERVE_SRC_CODEC_HPP
#define RRI_SERVE_SRC_CODEC_HPP

/// \file codec.hpp
/// Private to rri_serve: the one outcome codec.
///  * Binary, shared by the two persisted formats, the daemon's RRJL
///    journal (jobstore.cpp) and run_batch's RRBS checkpoints
///    (batch_state.cpp): host-order PODs, u32-length-prefixed strings,
///    one JobOutcome layout, and the blob frame (4-byte magic, u32
///    version, body, CRC-32 footer over every preceding byte).
///  * JSON: the result fields that bpmax_batch's result lines and the
///    daemon's `result` frames share, so rri_client reproduces
///    bpmax_batch output byte for byte.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "rri/core/serialize.hpp"
#include "rri/serve/job.hpp"

namespace rri::serve::codec {

template <typename T>
void append_pod(std::string& out, const T& value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T take_pod(const std::string& bytes, std::size_t& pos, std::size_t end) {
  if (pos + sizeof(T) > end) {
    throw core::SerializeError("truncated record");
  }
  T value{};
  std::memcpy(&value, bytes.data() + pos, sizeof(T));
  pos += sizeof(T);
  return value;
}

void append_string(std::string& out, const std::string& s);
std::string take_string(const std::string& bytes, std::size_t& pos,
                        std::size_t end);

void append_outcome(std::string& out, const JobOutcome& o);
/// `with_algebra` gates the trailing algebra tag + log_z (RRJL v3,
/// RRBS v2); older outcomes decode with the tropical defaults, which is
/// what they computed.
JobOutcome take_outcome(const std::string& bytes, std::size_t& pos,
                        std::size_t end, bool with_algebra);

/// Check a blob's magic and CRC-32 footer, then read its version (1 to
/// `newest`). On return `pos` is past the version and `end` at the
/// footer. Throws core::SerializeError naming `what` ("job journal").
std::uint32_t open_blob(const std::string& bytes, const char (&magic)[4],
                        const char* what, std::uint32_t newest,
                        std::size_t& pos, std::size_t& end);

/// A job key as results and frames print it: 8 lowercase hex digits.
std::string key_hex(std::uint32_t key);

/// Everything after a result's "id": "key", "m", "n", then either the
/// rejection "error" or ["algebra", "log_z",] "score", "cache_hit",
/// "seconds". No leading or trailing comma.
std::string result_fields(const JobOutcome& o);

}  // namespace rri::serve::codec

#endif  // RRI_SERVE_SRC_CODEC_HPP
