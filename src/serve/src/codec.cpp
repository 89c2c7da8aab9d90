#include "codec.hpp"

#include <cstdio>

#include "rri/core/crc32.hpp"

namespace rri::serve::codec {

void append_string(std::string& out, const std::string& s) {
  append_pod(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

std::string take_string(const std::string& bytes, std::size_t& pos,
                        std::size_t end) {
  const auto len = take_pod<std::uint32_t>(bytes, pos, end);
  if (pos + len > end) {
    throw core::SerializeError("truncated record");
  }
  std::string s = bytes.substr(pos, len);
  pos += len;
  return s;
}

void append_outcome(std::string& out, const JobOutcome& o) {
  append_string(out, o.id);
  append_pod(out, o.key);
  append_pod(out, static_cast<std::int32_t>(o.m));
  append_pod(out, static_cast<std::int32_t>(o.n));
  append_pod(out, o.score);
  append_pod(out, static_cast<std::uint8_t>(o.cache_hit ? 1 : 0));
  append_pod(out, static_cast<std::uint8_t>(o.rejected ? 1 : 0));
  append_pod(out, o.seconds);
  append_pod(out, static_cast<std::uint8_t>(o.algebra));
  append_pod(out, o.log_z);
}

JobOutcome take_outcome(const std::string& bytes, std::size_t& pos,
                        std::size_t end, bool with_algebra) {
  JobOutcome o;
  o.id = take_string(bytes, pos, end);
  o.key = take_pod<std::uint32_t>(bytes, pos, end);
  o.m = take_pod<std::int32_t>(bytes, pos, end);
  o.n = take_pod<std::int32_t>(bytes, pos, end);
  o.score = take_pod<float>(bytes, pos, end);
  o.cache_hit = take_pod<std::uint8_t>(bytes, pos, end) != 0;
  o.rejected = take_pod<std::uint8_t>(bytes, pos, end) != 0;
  o.seconds = take_pod<double>(bytes, pos, end);
  if (with_algebra) {
    o.algebra = static_cast<semiring::Algebra>(
        take_pod<std::uint8_t>(bytes, pos, end));
    o.log_z = take_pod<double>(bytes, pos, end);
  }
  return o;
}

std::uint32_t open_blob(const std::string& bytes, const char (&magic)[4],
                        const char* what, std::uint32_t newest,
                        std::size_t& pos, std::size_t& end) {
  const std::string name(magic, sizeof(magic));
  if (bytes.size() < sizeof(magic) + sizeof(std::uint32_t) ||
      std::memcmp(bytes.data(), magic, sizeof(magic)) != 0) {
    throw core::SerializeError("not an " + name + " " + what +
                               " (bad magic)");
  }
  // Integrity first: everything after this may trust the bytes.
  end = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t footer = 0;
  std::memcpy(&footer, bytes.data() + end, sizeof(footer));
  const std::uint32_t computed = core::crc32(bytes.data(), end);
  if (footer != computed) {
    throw core::SerializeError(std::string(what) +
                               " checksum mismatch (stored CRC32 " +
                               std::to_string(footer) + ", computed " +
                               std::to_string(computed) + ")");
  }
  pos = sizeof(magic);
  const auto version = take_pod<std::uint32_t>(bytes, pos, end);
  if (version < 1 || version > newest) {
    throw core::SerializeError("unsupported " + name + " version " +
                               std::to_string(version));
  }
  return version;
}

std::string key_hex(std::uint32_t key) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%08x", key);
  return buffer;
}

std::string result_fields(const JobOutcome& o) {
  std::string out = "\"key\":\"" + key_hex(o.key) + "\",\"m\":" +
                    std::to_string(o.m) + ",\"n\":" + std::to_string(o.n);
  if (o.rejected) {
    return out + ",\"error\":\"rejected: table exceeds the worker memory "
                 "budget\"";
  }
  char buffer[64];
  // Non-tropical outcomes name their algebra and carry the full-precision
  // log partition function; "score" stays the float narrowing of log_z so
  // downstream tooling that only knows "score" keeps working.
  if (o.algebra != semiring::Algebra::kTropical) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", o.log_z);
    out += ",\"algebra\":\"";
    out += semiring::algebra_name(o.algebra);
    out += "\",\"log_z\":";
    out += buffer;
  }
  // %.9g round-trips any float exactly; scores are small integers in
  // practice, so this usually prints "12".
  std::snprintf(buffer, sizeof(buffer), "%.9g", static_cast<double>(o.score));
  out += ",\"score\":";
  out += buffer;
  out += ",\"cache_hit\":";
  out += o.cache_hit ? "true" : "false";
  std::snprintf(buffer, sizeof(buffer), "%.6f", o.seconds);
  out += ",\"seconds\":";
  out += buffer;
  return out;
}

}  // namespace rri::serve::codec
