#ifndef RRI_SERVE_TENANT_HPP
#define RRI_SERVE_TENANT_HPP

/// \file tenant.hpp
/// Per-tenant admission budgets for the serving daemon. Every submit
/// frame may carry an optional "tenant" string; the governor prices the
/// job with the same F-table model as --max-mem (core::table_bytes) and
/// charges it against that tenant's bucket:
///
///   - a deterministic token-bucket rate limiter (rate_per_s, burst),
///   - a concurrent-job ceiling (jobs admitted but not yet terminal),
///   - an in-flight memory budget (sum of admitted F-table bytes).
///
/// Buckets are configured from a JSONL file (--tenant-config), one
/// object per line, parsed with line-numbered errors exactly like
/// manifests:
///
///   {"tenant":"acme","rate_per_s":2,"burst":4,"max_concurrent":8,
///    "max_mem_gib":0.5}
///
/// The reserved name "default" configures the bucket that every tenant
/// not listed in the file (including the anonymous "" tenant) gets a
/// private instance of. A zero on any field means "unlimited" for that
/// dimension, so an empty config admits everything — the governor is
/// always in the submit path and costs one map lookup when idle.
///
/// Determinism: the governor never reads a clock itself; callers pass
/// monotonic seconds into admit(), so tests drive it with a fake clock
/// and identical call sequences produce identical decisions and
/// retry_after_s hints.
///
/// Not thread-safe by itself: the daemon serializes access under its
/// state mutex, same as JobStore.

#include <cstdint>
#include <istream>
#include <map>
#include <string>

namespace rri::serve {

/// Budgets for one tenant bucket. Default-constructed = unlimited.
struct TenantLimits {
  double rate_per_s = 0.0;   ///< token refill per second; 0 = unlimited
  double burst = 1.0;        ///< bucket capacity in jobs (>= 1)
  int max_concurrent = 0;    ///< admitted-but-not-terminal cap; 0 = unlimited
  double max_mem_bytes = 0.0;  ///< in-flight F-table byte cap; 0 = unlimited

  friend bool operator==(const TenantLimits&, const TenantLimits&) = default;
};

/// Parsed --tenant-config file.
struct TenantConfig {
  TenantLimits default_limits{};  ///< bucket template for unlisted tenants
  std::map<std::string, TenantLimits> tenants;

  /// Parse JSONL tenant config. Throws rna::ParseError with a 1-based
  /// line number on bad JSON, unknown keys, non-finite or negative
  /// rates, burst < 1, or duplicate tenant names. Blank lines and '#'
  /// comments are skipped, CRLF tolerated — the manifest conventions.
  static TenantConfig parse(std::istream& in);
  static TenantConfig load_file(const std::string& path);

  const TenantLimits& limits_for(const std::string& tenant) const;
};

/// One admit() verdict. When refused, `reason` is the machine-readable
/// dimension and `retry_after_s` the computed wait the error frame
/// carries back to the client.
struct QuotaDecision {
  bool admitted = true;
  std::string reason;   ///< "rate" | "concurrency" | "memory"
  std::string message;  ///< human text for the error frame
  double retry_after_s = 0.0;
};

/// Per-tenant tallies for the stats verb and shutdown counters.
struct TenantUsage {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t finished = 0;
  int inflight_jobs = 0;
  double inflight_bytes = 0.0;
};

class TenantGovernor {
 public:
  TenantGovernor() = default;
  explicit TenantGovernor(TenantConfig config);

  /// Charge one job of `table_bytes` against `tenant` at monotonic time
  /// `now_s`. On success the token is consumed and the job is counted
  /// in flight; call finish() exactly once when it reaches a terminal
  /// state. On refusal nothing is consumed.
  QuotaDecision admit(const std::string& tenant, double table_bytes,
                      double now_s);

  /// Account a job that was already admitted in a previous run (journal
  /// replay) without a token draw — restarting the daemon must not
  /// rate-penalize recovered work.
  void adopt(const std::string& tenant, double table_bytes, double now_s);

  /// Release one admitted job (done / failed / cancelled / shed).
  void finish(const std::string& tenant, double table_bytes);

  /// Tallies per tenant seen so far, in name order.
  std::map<std::string, TenantUsage> usage() const;

 private:
  struct Bucket {
    TenantLimits limits;
    double tokens = 0.0;
    double refilled_at_s = 0.0;
    TenantUsage usage;
  };
  Bucket& bucket_for(const std::string& tenant, double now_s);
  static void refill(Bucket& b, double now_s);

  TenantConfig config_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace rri::serve

#endif  // RRI_SERVE_TENANT_HPP
