#include "rri/serve/jobstore.hpp"

#include <utility>

#include "codec.hpp"
#include "rri/core/crc32.hpp"
#include "rri/obs/obs.hpp"

namespace rri::serve {
namespace {

using codec::append_pod;
using codec::append_string;
using codec::take_pod;
using codec::take_string;

constexpr char kMagic[4] = {'R', 'R', 'J', 'L'};
/// v1: pre-quota journals (no tenant/deadline on submit records).
/// v2: submit records carry the tenant name and deadline_s.
/// v3: submit records carry the algebra tag + temperature; outcomes
///     carry the algebra tag + log_z. Older journals decode with the
///     tropical defaults, which is exactly what they computed.
constexpr std::uint32_t kVersion = 3;

}  // namespace

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

std::string encode_journal(const std::vector<JournalRecord>& records) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  append_pod(out, kVersion);
  append_pod(out, static_cast<std::uint32_t>(records.size()));
  for (const JournalRecord& r : records) {
    append_pod(out, static_cast<std::uint8_t>(r.kind));
    append_string(out, r.id);
    switch (r.kind) {
      case JournalRecord::Kind::kSubmit:
        append_string(out, r.s1);
        append_string(out, r.s2);
        append_pod(out, static_cast<std::uint8_t>(r.params.unit_weights));
        append_pod(out, static_cast<std::int32_t>(r.params.min_hairpin));
        append_pod(out, static_cast<std::uint8_t>(r.params.reverse));
        append_string(out, r.tenant);
        append_pod(out, r.deadline_s);
        append_pod(out, static_cast<std::uint8_t>(r.params.algebra));
        append_pod(out, r.params.temperature);
        break;
      case JournalRecord::Kind::kDone:
        codec::append_outcome(out, r.outcome);
        break;
      case JournalRecord::Kind::kFailed:
        append_string(out, r.error);
        break;
      case JournalRecord::Kind::kStart:
      case JournalRecord::Kind::kCancelled:
        break;
    }
  }
  append_pod(out, core::crc32(out.data(), out.size()));
  return out;
}

std::vector<JournalRecord> decode_journal(const std::string& bytes) {
  std::size_t pos = 0;
  std::size_t body = 0;
  const std::uint32_t version =
      codec::open_blob(bytes, kMagic, "job journal", kVersion, pos, body);
  const auto count = take_pod<std::uint32_t>(bytes, pos, body);
  std::vector<JournalRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    JournalRecord r;
    const auto kind = take_pod<std::uint8_t>(bytes, pos, body);
    if (kind > static_cast<std::uint8_t>(JournalRecord::Kind::kCancelled)) {
      throw core::SerializeError("unknown journal record kind " +
                                 std::to_string(kind));
    }
    r.kind = static_cast<JournalRecord::Kind>(kind);
    r.id = take_string(bytes, pos, body);
    switch (r.kind) {
      case JournalRecord::Kind::kSubmit:
        r.s1 = take_string(bytes, pos, body);
        r.s2 = take_string(bytes, pos, body);
        r.params.unit_weights = take_pod<std::uint8_t>(bytes, pos, body) != 0;
        r.params.min_hairpin =
            take_pod<std::int32_t>(bytes, pos, body);
        r.params.reverse = take_pod<std::uint8_t>(bytes, pos, body) != 0;
        if (version >= 2) {
          r.tenant = take_string(bytes, pos, body);
          r.deadline_s = take_pod<double>(bytes, pos, body);
        }
        if (version >= 3) {
          r.params.algebra = static_cast<semiring::Algebra>(
              take_pod<std::uint8_t>(bytes, pos, body));
          r.params.temperature = take_pod<double>(bytes, pos, body);
        }
        break;
      case JournalRecord::Kind::kDone:
        r.outcome = codec::take_outcome(bytes, pos, body, version >= 3);
        break;
      case JournalRecord::Kind::kFailed:
        r.error = take_string(bytes, pos, body);
        break;
      case JournalRecord::Kind::kStart:
      case JournalRecord::Kind::kCancelled:
        break;
    }
    records.push_back(std::move(r));
  }
  if (pos != body) {
    throw core::SerializeError("trailing bytes in job journal");
  }
  return records;
}

JobStore::JobStore(mpisim::BlobStore* store) : store_(store) {}

std::vector<std::string> JobStore::recover() {
  std::vector<std::string> requeued;
  if (store_ == nullptr) {
    return requeued;
  }
  std::optional<std::vector<JournalRecord>> replay;
  for (const std::string& blob : store_->blobs()) {
    try {
      replay = decode_journal(blob);
      break;
    } catch (const core::SerializeError&) {
      RRI_OBS_COUNTER("serve.daemon.journal_corrupt", 1);
    }
  }
  if (!replay.has_value()) {
    // Nothing decodable: drop any stale/corrupt blobs so their sequence
    // numbers can never shadow this run's fresh appends.
    store_->clear();
    return requeued;
  }
  journal_.clear();
  jobs_.clear();
  submit_order_.clear();
  for (JournalRecord& r : *replay) {
    apply(r);
    journal_.push_back(std::move(r));
  }
  seq_ = journal_.size();
  // An interrupted run: whatever was running when the process died has
  // no recorded outcome, so it folds back to queued for re-execution
  // (at-least-once; the kernels are deterministic).
  for (const std::string& id : submit_order_) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      continue;
    }
    if (it->second.state == JobState::kRunning) {
      it->second.state = JobState::kQueued;
    }
    if (it->second.state == JobState::kQueued) {
      requeued.push_back(id);
    }
  }
  RRI_OBS_COUNTER("serve.daemon.jobs_replayed",
                  static_cast<double>(jobs_.size()));
  RRI_OBS_COUNTER("serve.daemon.jobs_requeued",
                  static_cast<double>(requeued.size()));
  return requeued;
}

void JobStore::append(JournalRecord record) {
  apply(record);
  journal_.push_back(std::move(record));
  if (store_ != nullptr) {
    // The whole journal every time: blob N supersedes blob N-1, so the
    // keep-last-K store always holds a complete history and a torn
    // newest write falls back to the previous complete one.
    store_->put_blob(++seq_, encode_journal(journal_));
    RRI_OBS_COUNTER("serve.daemon.journal_appends", 1);
  }
}

void JobStore::apply(const JournalRecord& record) {
  if (record.kind == JournalRecord::Kind::kSubmit) {
    StoredJob stored;
    stored.job.id = record.id;
    stored.job.s1 = rna::Sequence::from_string(record.s1);
    stored.job.s2 = rna::Sequence::from_string(record.s2);
    stored.job.params = record.params;
    stored.job.tenant = record.tenant;
    stored.job.deadline_s = record.deadline_s;
    stored.state = JobState::kQueued;
    auto [it, inserted] = jobs_.emplace(record.id, std::move(stored));
    if (inserted) {
      submit_order_.push_back(record.id);
    }
    return;
  }
  const auto it = jobs_.find(record.id);
  if (it == jobs_.end()) {
    return;
  }
  StoredJob& stored = it->second;
  switch (record.kind) {
    case JournalRecord::Kind::kStart:
      stored.state = JobState::kRunning;
      break;
    case JournalRecord::Kind::kDone:
      stored.state = JobState::kDone;
      stored.outcome = record.outcome;
      break;
    case JournalRecord::Kind::kFailed:
      stored.state = JobState::kFailed;
      stored.error = record.error;
      break;
    case JournalRecord::Kind::kCancelled:
      stored.state = JobState::kCancelled;
      break;
    case JournalRecord::Kind::kSubmit:
      break;
  }
}

bool JobStore::submit(const Job& job) {
  if (jobs_.find(job.id) != jobs_.end()) {
    return false;
  }
  JournalRecord r;
  r.kind = JournalRecord::Kind::kSubmit;
  r.id = job.id;
  r.s1 = job.s1.to_string();
  r.s2 = job.s2.to_string();
  r.params = job.params;
  r.tenant = job.tenant;
  r.deadline_s = job.deadline_s;
  append(std::move(r));
  return true;
}

bool JobStore::mark_running(const std::string& id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) {
    return false;
  }
  JournalRecord r;
  r.kind = JournalRecord::Kind::kStart;
  r.id = id;
  append(std::move(r));
  return true;
}

void JobStore::mark_done(const std::string& id, const JobOutcome& outcome) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kDone;
  r.id = id;
  r.outcome = outcome;
  append(std::move(r));
}

void JobStore::mark_failed(const std::string& id, const std::string& error) {
  JournalRecord r;
  r.kind = JournalRecord::Kind::kFailed;
  r.id = id;
  r.error = error;
  append(std::move(r));
}

bool JobStore::cancel(const std::string& id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.state != JobState::kQueued) {
    return false;
  }
  JournalRecord r;
  r.kind = JournalRecord::Kind::kCancelled;
  r.id = id;
  append(std::move(r));
  return true;
}

const StoredJob* JobStore::find(const std::string& id) const {
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::vector<std::string> JobStore::queued_ids() const {
  std::vector<std::string> ids;
  for (const std::string& id : submit_order_) {
    const auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.state == JobState::kQueued) {
      ids.push_back(id);
    }
  }
  return ids;
}

JobCounts JobStore::counts() const {
  JobCounts c;
  for (const auto& [id, stored] : jobs_) {
    switch (stored.state) {
      case JobState::kQueued: ++c.queued; break;
      case JobState::kRunning: ++c.running; break;
      case JobState::kDone: ++c.done; break;
      case JobState::kFailed: ++c.failed; break;
      case JobState::kCancelled: ++c.cancelled; break;
    }
  }
  return c;
}

}  // namespace rri::serve
