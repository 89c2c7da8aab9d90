#include "rri/serve/batch_state.hpp"

#include "codec.hpp"
#include "rri/core/crc32.hpp"
#include "rri/obs/obs.hpp"

namespace rri::serve {
namespace {

using codec::append_pod;
using codec::take_pod;

constexpr char kMagic[4] = {'R', 'R', 'B', 'S'};
/// v2 appends the algebra tag + log_z to each outcome (mirroring RRJL
/// v3); v1 checkpoints decode with the tropical defaults.
constexpr std::uint32_t kVersion = 2;

}  // namespace

std::uint32_t manifest_digest(const std::vector<Job>& jobs) {
  core::Crc32 crc;
  for (const Job& job : jobs) {
    crc.update(job.id.data(), job.id.size());
    crc.update("\x1f", 1);
    const std::string key = job_key_text(job);
    crc.update(key.data(), key.size());
    crc.update("\x1e", 1);
  }
  return crc.value();
}

std::string encode_batch_state(const BatchState& state) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  append_pod(out, kVersion);
  append_pod(out, state.manifest_digest);
  append_pod(out, static_cast<std::uint32_t>(state.completed.size()));
  for (const JobOutcome& o : state.completed) {
    codec::append_outcome(out, o);
  }
  append_pod(out, core::crc32(out.data(), out.size()));
  return out;
}

BatchState decode_batch_state(const std::string& bytes) {
  std::size_t pos = 0;
  std::size_t body = 0;
  const std::uint32_t version =
      codec::open_blob(bytes, kMagic, "batch state", kVersion, pos, body);
  BatchState state;
  state.manifest_digest = take_pod<std::uint32_t>(bytes, pos, body);
  const auto count = take_pod<std::uint32_t>(bytes, pos, body);
  state.completed.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    state.completed.push_back(
        codec::take_outcome(bytes, pos, body, version >= 2));
  }
  if (pos != body) {
    throw core::SerializeError("trailing bytes in batch state");
  }
  return state;
}

std::optional<BatchState> latest_batch_state(mpisim::BlobStore& store) {
  for (const std::string& blob : store.blobs()) {
    try {
      return decode_batch_state(blob);
    } catch (const core::SerializeError&) {
      RRI_OBS_COUNTER("serve.checkpoints_corrupt", 1);
    }
  }
  return std::nullopt;
}

}  // namespace rri::serve
