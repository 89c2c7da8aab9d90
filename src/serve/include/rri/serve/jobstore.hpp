#ifndef RRI_SERVE_JOBSTORE_HPP
#define RRI_SERVE_JOBSTORE_HPP

/// \file jobstore.hpp
/// The daemon's persistent job table. Every state transition
/// (queued -> running -> done | failed | cancelled) appends one record
/// to an in-memory journal, and the whole journal is synchronously
/// persisted through the BlobStore layer before the mutation is
/// acknowledged — so a submit the daemon has acked is a submit the
/// journal holds, and a `kill -9` at any instant loses no accepted
/// work. Encoding is the repo's standard blob shape: "RRJL" magic +
/// version, the record list, and a CRC-32 footer over every preceding
/// byte; a torn newest blob fails decode and recovery falls back to
/// the previous one (keep-last-K, write-then-rename underneath).
///
/// Recovery folds the journal front to back: terminal jobs keep their
/// recorded outcome (served from the store, never recomputed); jobs
/// that were queued — or running when the process died — return to
/// queued and are re-enqueued. Execution is therefore at-least-once,
/// which is sound because the kernels are deterministic: a re-run
/// reproduces the identical score.
///
/// Not thread-safe by itself: the daemon serializes access under its
/// own state mutex (transitions are microseconds against kernel runs).

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rri/mpisim/checkpoint.hpp"
#include "rri/serve/job.hpp"

namespace rri::serve {

/// Lifecycle of one submitted job.
enum class JobState : std::uint8_t {
  kQueued = 0,  ///< accepted and journaled, awaiting a worker
  kRunning,     ///< a worker is executing it
  kDone,        ///< outcome recorded
  kFailed,      ///< kernel threw; error text recorded
  kCancelled,   ///< withdrawn while still queued
};
const char* job_state_name(JobState state) noexcept;
inline constexpr bool is_terminal(JobState state) noexcept {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// One journaled transition.
struct JournalRecord {
  enum class Kind : std::uint8_t {
    kSubmit = 0,  ///< carries the job inputs
    kStart,       ///< a worker picked the job up
    kDone,        ///< carries the outcome
    kFailed,      ///< carries the error text
    kCancelled,
  };
  Kind kind = Kind::kSubmit;
  std::string id;
  std::string s1;         ///< kSubmit: canonical strand text
  std::string s2;         ///< kSubmit
  JobParams params;       ///< kSubmit
  std::string tenant;     ///< kSubmit (v2; "" when replaying a v1 journal)
  double deadline_s = 0.0;  ///< kSubmit (v2): Job::deadline_s
  JobOutcome outcome;     ///< kDone
  std::string error;      ///< kFailed
};

/// Serialize / parse the whole journal ("RRJL" v3 + CRC-32 footer).
/// v2 added the tenant name and deadline to submit records; v3 adds the
/// scoring algebra + temperature to submit records and the algebra +
/// log_z to outcomes. Older journals still decode — the missing fields
/// fold to the tropical defaults, which is exactly what those runs
/// computed — so an upgraded daemon replays an old journal.
/// decode throws core::SerializeError on a bad magic, torn tail, CRC
/// mismatch, or inconsistent fields.
std::string encode_journal(const std::vector<JournalRecord>& records);
std::vector<JournalRecord> decode_journal(const std::string& bytes);

/// A job as the store sees it.
struct StoredJob {
  Job job;
  JobState state = JobState::kQueued;
  JobOutcome outcome;  ///< valid when state == kDone
  std::string error;   ///< set when state == kFailed
};

/// Per-state population counts (the status / stats verbs).
struct JobCounts {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t total() const noexcept {
    return queued + running + done + failed + cancelled;
  }
};

class JobStore {
 public:
  /// `store` may be null (in-memory only, no durability) — the daemon
  /// without --journal. Call recover() before the first mutation: it
  /// either adopts the stored journal or clears undecodable leftovers
  /// so stale blob sequence numbers cannot shadow fresh appends.
  explicit JobStore(mpisim::BlobStore* store);

  /// Replay the newest valid journal blob (corrupt blobs are skipped,
  /// obs "serve.daemon.journal_corrupt"). Returns the ids that came
  /// back as queued — including interrupted kRunning jobs — in their
  /// original submit order, for the daemon to re-enqueue.
  std::vector<std::string> recover();

  /// Journal + accept a new job. Returns false (and journals nothing)
  /// when the id already exists — resubmission after a restart is
  /// idempotent; the caller reports the existing state instead.
  bool submit(const Job& job);

  /// queued -> running. False when the job is missing or not queued
  /// (e.g. cancelled while sitting in the worker queue).
  bool mark_running(const std::string& id);

  /// running|queued -> done, outcome recorded. (Queued is allowed so a
  /// drain pass can complete jobs without a separate start record.)
  void mark_done(const std::string& id, const JobOutcome& outcome);

  /// running|queued -> failed, error recorded.
  void mark_failed(const std::string& id, const std::string& error);

  /// queued -> cancelled. False when missing or already running /
  /// terminal — cancel never claws back in-flight work.
  bool cancel(const std::string& id);

  /// Lookup; nullptr when the id was never submitted. The pointer stays
  /// valid until the next mutation.
  const StoredJob* find(const std::string& id) const;

  JobCounts counts() const;
  /// Ids currently queued, in submit order (the drain sweep's worklist).
  std::vector<std::string> queued_ids() const;
  std::size_t size() const { return jobs_.size(); }
  /// Journal records accumulated (transitions, not jobs).
  std::size_t journal_length() const { return journal_.size(); }

 private:
  void append(JournalRecord record);
  void apply(const JournalRecord& record);  ///< fold into jobs_

  mpisim::BlobStore* store_;
  std::vector<JournalRecord> journal_;
  std::map<std::string, StoredJob> jobs_;  ///< ordered for stable output
  std::vector<std::string> submit_order_;
  std::uint64_t seq_ = 0;
};

}  // namespace rri::serve

#endif  // RRI_SERVE_JOBSTORE_HPP
