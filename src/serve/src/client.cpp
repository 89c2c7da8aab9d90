#include "rri/serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace rri::serve {

DaemonClient::~DaemonClient() { close(); }

void DaemonClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void DaemonClient::set_retry_policy(const RetryPolicy& policy) {
  policy_ = policy;
  policy_.max_attempts = std::max(1, policy_.max_attempts);
  jitter_rng_.seed(policy_.seed);
}

double DaemonClient::backoff_s(int attempt) {
  double delay = policy_.base_s;
  for (int i = 0; i < attempt && delay < policy_.cap_s; ++i) {
    delay *= 2.0;
  }
  delay = std::min(delay, policy_.cap_s);
  // Top-53-bit draw, bit-identical across standard libraries; jitter
  // in [0.5, 1.0) keeps retries bounded below the cap yet spread out.
  const double unit =
      static_cast<double>(jitter_rng_() >> 11) * 0x1.0p-53;
  return delay * (0.5 + 0.5 * unit);
}

void DaemonClient::connect(const std::string& host, int port,
                           double timeout_s) {
  close();
  host_ = host;
  port_ = port;
  connect_timeout_s_ = timeout_s;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad host \"" + host +
                             "\" (expected a dotted-quad address)");
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error(std::string("socket(): ") +
                               std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      fd_ = fd;
      reader_ = FrameReader();  // no stale bytes across reconnects
      return;
    }
    const int err = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error("cannot connect to " + host + ":" +
                               std::to_string(port) + " within " +
                               std::to_string(timeout_s) +
                               "s: " + std::strerror(err));
    }
    // Capped exponential backoff with jitter instead of a fixed-period
    // hammer: cheap on a daemon that is seconds away from binding, and
    // restarting clients spread out instead of stampeding.
    const double delay =
        std::min(backoff_s(attempt),
                 std::max(0.0, std::chrono::duration<double>(
                                   deadline - std::chrono::steady_clock::now())
                                   .count()));
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
}

obs::JsonValue DaemonClient::request(const std::string& payload) {
  if (fd_ < 0) {
    throw std::runtime_error("not connected");
  }
  if (!send_all(fd_, encode_frame(payload))) {
    throw std::runtime_error(std::string("send failed: ") +
                             std::strerror(errno));
  }
  char buffer[65536];
  for (;;) {
    if (auto frame = reader_.next()) {
      try {
        return obs::json_parse(*frame);
      } catch (const obs::JsonError& e) {
        throw ProtocolError("bad_json",
                            std::string("unparseable response frame: ") +
                                e.what());
      }
    }
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error(
          "connection closed by the daemon before a response arrived");
    }
    reader_.feed(buffer, static_cast<std::size_t>(n));
  }
}

bool DaemonClient::retryable_refusal(const obs::JsonValue& doc) {
  const obs::JsonValue* ok = doc.find("ok");
  if (ok == nullptr || !ok->is(obs::JsonValue::Type::kBool) ||
      ok->as_bool()) {
    return false;
  }
  const obs::JsonValue* code = doc.find("code");
  if (code == nullptr || !code->is(obs::JsonValue::Type::kString)) {
    return false;
  }
  return code->as_string() == "quota_exceeded" ||
         code->as_string() == "overloaded";
}

obs::JsonValue DaemonClient::request_retrying(const std::string& payload) {
  obs::JsonValue last;
  for (int attempt = 0;; ++attempt) {
    const bool last_try = attempt + 1 >= policy_.max_attempts;
    try {
      last = request(payload);
    } catch (const std::runtime_error&) {
      // Transport fault: connection reset / daemon restart. The socket
      // is dead either way; back off, reconnect, resend. Safe because
      // every verb is idempotent (submit via job_key_text).
      if (last_try) {
        throw;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff_s(attempt)));
      connect(host_, port_, connect_timeout_s_);
      continue;
    }
    if (!retryable_refusal(last) || last_try) {
      return last;  // success, a non-retryable error, or out of tries
    }
    double wait = backoff_s(attempt);
    if (const obs::JsonValue* hint = last.find("retry_after_s")) {
      if (hint->is(obs::JsonValue::Type::kNumber)) {
        wait = std::min(std::max(wait, hint->as_number()), policy_.cap_s);
      }
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

obs::JsonValue DaemonClient::ping() {
  return request("{\"op\":\"ping\"}\n");
}

obs::JsonValue DaemonClient::submit(const Job& job) {
  return request(submit_payload(job));
}

obs::JsonValue DaemonClient::status(const std::string& id) {
  if (id.empty()) {
    return request("{\"op\":\"status\"}\n");
  }
  return request("{\"op\":\"status\",\"id\":\"" + obs::json_escape(id) +
                 "\"}\n");
}

obs::JsonValue DaemonClient::result(const std::string& id, bool wait) {
  return request("{\"op\":\"result\",\"id\":\"" + obs::json_escape(id) +
                 "\",\"wait\":" + (wait ? "true" : "false") + "}\n");
}

obs::JsonValue DaemonClient::submit_retrying(const Job& job) {
  return request_retrying(submit_payload(job));
}

obs::JsonValue DaemonClient::result_retrying(const std::string& id,
                                             bool wait) {
  return request_retrying("{\"op\":\"result\",\"id\":\"" +
                          obs::json_escape(id) +
                          "\",\"wait\":" + (wait ? "true" : "false") +
                          "}\n");
}

obs::JsonValue DaemonClient::cancel(const std::string& id) {
  return request("{\"op\":\"cancel\",\"id\":\"" + obs::json_escape(id) +
                 "\"}\n");
}

obs::JsonValue DaemonClient::drain() {
  return request("{\"op\":\"drain\"}\n");
}

obs::JsonValue DaemonClient::stats() {
  return request("{\"op\":\"stats\"}\n");
}

obs::JsonValue DaemonClient::metrics() {
  return request("{\"op\":\"metrics\"}\n");
}

obs::JsonValue DaemonClient::slo() {
  return request("{\"op\":\"slo\"}\n");
}

JobOutcome DaemonClient::outcome_from_response(const obs::JsonValue& doc) {
  JobOutcome o;
  o.id = doc.get("id").as_string();
  o.key = static_cast<std::uint32_t>(
      std::strtoul(doc.get("key").as_string().c_str(), nullptr, 16));
  o.m = static_cast<int>(doc.get("m").as_number());
  o.n = static_cast<int>(doc.get("n").as_number());
  o.score = static_cast<float>(doc.get("score").as_number());
  // Non-tropical outcomes name their algebra and carry the full-precision
  // log_z; absent fields mean a tropical result (possibly from a daemon
  // that predates the semiring seam).
  const obs::JsonValue* algebra = doc.find("algebra");
  if (algebra != nullptr) {
    const auto parsed = semiring::parse_algebra(algebra->as_string());
    if (parsed.has_value()) {
      o.algebra = *parsed;
    }
  }
  const obs::JsonValue* log_z = doc.find("log_z");
  if (log_z != nullptr) {
    o.log_z = log_z->as_number();
  }
  o.cache_hit = doc.get("cache_hit").as_bool();
  o.seconds = doc.get("seconds").as_number();
  return o;
}

}  // namespace rri::serve
