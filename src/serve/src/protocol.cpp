#include "rri/serve/protocol.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "rri/obs/json.hpp"

namespace rri::serve {
namespace {

std::uint32_t load_be32(const char* p) {
  return (static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3]));
}

void store_be32(std::uint32_t v, char* p) {
  p[0] = static_cast<char>((v >> 24) & 0xff);
  p[1] = static_cast<char>((v >> 16) & 0xff);
  p[2] = static_cast<char>((v >> 8) & 0xff);
  p[3] = static_cast<char>(v & 0xff);
}

}  // namespace

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string encode_frame(const std::string& payload, std::size_t max_frame) {
  if (payload.size() > max_frame) {
    throw ProtocolError("oversized_frame",
                        "frame payload of " + std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(max_frame) + "-byte budget");
  }
  std::string out;
  out.resize(kFrameHeaderBytes);
  store_be32(static_cast<std::uint32_t>(payload.size()), out.data());
  out += payload;
  return out;
}

void FrameReader::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

std::optional<std::string> FrameReader::next() {
  if (poisoned_) {
    throw ProtocolError("oversized_frame",
                        "frame stream poisoned by an oversized frame");
  }
  if (buffer_.size() < kFrameHeaderBytes) {
    return std::nullopt;
  }
  const std::uint32_t declared = load_be32(buffer_.data());
  if (declared > max_frame_) {
    // The declared length is the only framing information there is; once
    // it is implausible the stream offset can never be re-synchronized.
    poisoned_ = true;
    throw ProtocolError("oversized_frame",
                        "declared frame length " + std::to_string(declared) +
                            " exceeds the " + std::to_string(max_frame_) +
                            "-byte budget");
  }
  if (buffer_.size() < kFrameHeaderBytes + declared) {
    return std::nullopt;
  }
  std::string payload = buffer_.substr(kFrameHeaderBytes, declared);
  buffer_.erase(0, kFrameHeaderBytes + declared);
  return payload;
}

const char* verb_name(Verb verb) noexcept {
  switch (verb) {
    case Verb::kSubmit: return "submit";
    case Verb::kStatus: return "status";
    case Verb::kResult: return "result";
    case Verb::kCancel: return "cancel";
    case Verb::kDrain: return "drain";
    case Verb::kStats: return "stats";
    case Verb::kPing: return "ping";
    case Verb::kMetrics: return "metrics";
    case Verb::kSlo: return "slo";
  }
  return "?";
}

Request parse_request(const std::string& payload, const JobParams& defaults) {
  obs::JsonValue doc;
  try {
    doc = obs::json_parse(payload);
  } catch (const obs::JsonError& e) {
    throw ProtocolError("bad_json", std::string("payload is not JSON: ") +
                                        e.what());
  }
  if (!doc.is(obs::JsonValue::Type::kObject)) {
    throw ProtocolError("bad_request", "payload must be a JSON object");
  }
  const obs::JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is(obs::JsonValue::Type::kString)) {
    throw ProtocolError("bad_request", "request needs a string \"op\"");
  }
  Request req;
  const std::string& name = op->as_string();
  if (name == "submit") {
    req.verb = Verb::kSubmit;
  } else if (name == "status") {
    req.verb = Verb::kStatus;
  } else if (name == "result") {
    req.verb = Verb::kResult;
  } else if (name == "cancel") {
    req.verb = Verb::kCancel;
  } else if (name == "drain") {
    req.verb = Verb::kDrain;
  } else if (name == "stats") {
    req.verb = Verb::kStats;
  } else if (name == "ping") {
    req.verb = Verb::kPing;
  } else if (name == "metrics") {
    req.verb = Verb::kMetrics;
  } else if (name == "slo") {
    req.verb = Verb::kSlo;
  } else {
    throw ProtocolError("bad_request", "unknown op \"" + name +
                                           "\" (known: submit, status, "
                                           "result, cancel, drain, stats, "
                                           "ping, metrics, slo)");
  }

  if (const obs::JsonValue* id = doc.find("id")) {
    if (!id->is(obs::JsonValue::Type::kString)) {
      throw ProtocolError("bad_request", "\"id\" must be a string");
    }
    req.id = id->as_string();
  }
  const bool id_required = req.verb == Verb::kSubmit ||
                           req.verb == Verb::kResult ||
                           req.verb == Verb::kCancel;
  if (id_required && req.id.empty()) {
    throw ProtocolError("bad_request", std::string("\"") + name +
                                           "\" needs a non-empty \"id\"");
  }

  if (const obs::JsonValue* wait = doc.find("wait")) {
    if (!wait->is(obs::JsonValue::Type::kBool)) {
      throw ProtocolError("bad_request", "\"wait\" must be a boolean");
    }
    req.wait = wait->as_bool();
  }

  if (req.verb == Verb::kSubmit) {
    const obs::JsonValue* s1 = doc.find("s1");
    const obs::JsonValue* s2 = doc.find("s2");
    if (s1 == nullptr || s2 == nullptr ||
        !s1->is(obs::JsonValue::Type::kString) ||
        !s2->is(obs::JsonValue::Type::kString)) {
      throw ProtocolError("bad_request",
                          "submit needs string \"s1\" and \"s2\" strands");
    }
    req.job.id = req.id;
    try {
      req.job.s1 = rna::Sequence::from_string(s1->as_string());
      req.job.s2 = rna::Sequence::from_string(s2->as_string());
    } catch (const rna::ParseError& e) {
      throw ProtocolError("bad_sequence", e.what());
    }
    if (req.job.s1.empty() || req.job.s2.empty()) {
      throw ProtocolError("bad_sequence", "strands must be non-empty");
    }
    if (const obs::JsonValue* tenant = doc.find("tenant")) {
      if (!tenant->is(obs::JsonValue::Type::kString)) {
        throw ProtocolError("bad_request", "\"tenant\" must be a string");
      }
      req.job.tenant = tenant->as_string();
    }
    if (const obs::JsonValue* deadline = doc.find("deadline_s")) {
      if (!deadline->is(obs::JsonValue::Type::kNumber) ||
          !(deadline->as_number() >= 0.0)) {
        throw ProtocolError("bad_request",
                            "\"deadline_s\" must be a number >= 0");
      }
      req.job.deadline_s = deadline->as_number();
    }
    req.job.params = defaults;
    if (const obs::JsonValue* p = doc.find("params")) {
      if (!p->is(obs::JsonValue::Type::kObject)) {
        throw ProtocolError("bad_request", "\"params\" must be an object");
      }
      for (const auto& [key, value] : p->as_object()) {
        try {
          if (key == "unit-weights") {
            req.job.params.unit_weights = value.as_bool();
          } else if (key == "min-hairpin") {
            req.job.params.min_hairpin = static_cast<int>(value.as_number());
          } else if (key == "no-reverse") {
            req.job.params.reverse = !value.as_bool();
          } else if (key == "algebra") {
            const auto algebra = semiring::parse_algebra(value.as_string());
            if (!algebra.has_value()) {
              throw ProtocolError("bad_request",
                                  "unknown algebra \"" + value.as_string() +
                                      "\" (known: tropical, logsumexp)");
            }
            req.job.params.algebra = *algebra;
          } else if (key == "temperature") {
            if (!(value.as_number() > 0.0)) {
              throw ProtocolError("bad_request",
                                  "\"temperature\" must be a number > 0");
            }
            req.job.params.temperature = value.as_number();
          } else {
            throw ProtocolError("bad_request",
                                "unknown param \"" + key + "\"");
          }
        } catch (const obs::JsonError&) {
          throw ProtocolError("bad_request",
                              "bad value for param \"" + key + "\"");
        }
      }
    }
  }
  return req;
}

std::string submit_payload(const Job& job) {
  std::string out = "{\"op\":\"submit\",\"id\":\"";
  out += obs::json_escape(job.id);
  out += "\",\"s1\":\"";
  out += job.s1.to_string();
  out += "\",\"s2\":\"";
  out += job.s2.to_string();
  out += "\",\"params\":{\"unit-weights\":";
  out += job.params.unit_weights ? "true" : "false";
  out += ",\"min-hairpin\":";
  out += std::to_string(job.params.min_hairpin);
  out += ",\"no-reverse\":";
  out += job.params.reverse ? "false" : "true";
  // Optional v3 fields: emitted only when non-default, so pre-algebra
  // daemons keep accepting the payloads of tropical-only clients.
  if (job.params.algebra != semiring::Algebra::kTropical) {
    out += ",\"algebra\":\"";
    out += semiring::algebra_name(job.params.algebra);
    out += "\"";
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.17g", job.params.temperature);
    out += ",\"temperature\":";
    out += buffer;
  }
  out += "}";
  if (!job.tenant.empty()) {
    out += ",\"tenant\":\"";
    out += obs::json_escape(job.tenant);
    out += "\"";
  }
  if (job.deadline_s > 0.0) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", job.deadline_s);
    out += ",\"deadline_s\":";
    out += buffer;
  }
  out += "}\n";
  return out;
}

std::string error_payload(const std::string& op, const std::string& id,
                          const std::string& code,
                          const std::string& message) {
  std::string out = "{\"ok\":false,\"op\":\"";
  out += obs::json_escape(op);
  out += "\"";
  if (!id.empty()) {
    out += ",\"id\":\"";
    out += obs::json_escape(id);
    out += "\"";
  }
  out += ",\"code\":\"";
  out += obs::json_escape(code);
  out += "\",\"error\":\"";
  out += obs::json_escape(message);
  out += "\"}\n";
  return out;
}

std::string error_payload(const std::string& op, const std::string& id,
                          const std::string& code, const std::string& message,
                          double retry_after_s) {
  std::string out = error_payload(op, id, code, message);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", retry_after_s);
  // Splice before the closing "}\n" so the field order stays stable.
  out.insert(out.size() - 2,
             std::string(",\"retry_after_s\":") + buffer);
  return out;
}

}  // namespace rri::serve
