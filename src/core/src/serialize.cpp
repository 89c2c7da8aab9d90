#include "rri/core/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

#include "rri/core/crc32.hpp"

namespace rri::core {
namespace {

constexpr char kMagic[4] = {'R', 'R', 'I', 'F'};
// v1: header + raw triangle blocks. v2 appends a CRC-32 footer over
// everything before it (header included); v1 streams remain readable.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kByteOrderProbe = 0x01020304;
// Dimension sanity bound: a 65k x 65k table would be ~10^19 cells.
constexpr std::int32_t kMaxExtent = 1 << 16;

template <typename T>
void write_pod(std::ostream& out, Crc32& crc, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  crc.update(&value, sizeof(T));
}

template <typename T>
T read_pod(std::istream& in, Crc32& crc) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw SerializeError("truncated F-table stream");
  }
  crc.update(&value, sizeof(T));
  return value;
}

/// Bytes each version stores for an m x n table, excluding the footer:
/// the 20-byte header and the table's blocks, which are exactly what
/// FTable allocates. Priced in double with an explicit overflow check:
/// header fields are attacker-controlled bytes at this point.
std::size_t body_bytes(std::int32_t m, std::int32_t n) {
  const double table = table_bytes(static_cast<std::size_t>(m),
                                   static_cast<std::size_t>(n),
                                   semiring::Algebra::kTropical);
  if (!(table < static_cast<double>(SIZE_MAX - 20))) {
    throw SerializeError("implausible F-table dimensions " +
                         std::to_string(m) + " x " + std::to_string(n));
  }
  return 20 + static_cast<std::size_t>(table);
}

/// If `in` is seekable, the number of bytes from the current position to
/// the end; SIZE_MAX when the stream cannot tell (pipes).
std::size_t remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) {
    return SIZE_MAX;
  }
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end == std::istream::pos_type(-1)) {
    in.clear();
    in.seekg(here);
    return SIZE_MAX;
  }
  return static_cast<std::size_t>(end - here);
}

}  // namespace

void save_ftable(std::ostream& out, const FTable& table) {
  Crc32 crc;
  out.write(kMagic, sizeof(kMagic));
  crc.update(kMagic, sizeof(kMagic));
  write_pod(out, crc, kVersion);
  write_pod(out, crc, kByteOrderProbe);
  write_pod(out, crc, static_cast<std::int32_t>(table.m()));
  write_pod(out, crc, static_cast<std::int32_t>(table.n()));
  const std::size_t block =
      static_cast<std::size_t>(table.n()) * static_cast<std::size_t>(table.n());
  for (int i1 = 0; i1 < table.m(); ++i1) {
    for (int j1 = i1; j1 < table.m(); ++j1) {
      out.write(reinterpret_cast<const char*>(table.block(i1, j1)),
                static_cast<std::streamsize>(block * sizeof(float)));
      crc.update(table.block(i1, j1), block * sizeof(float));
    }
  }
  const std::uint32_t footer = crc.value();
  out.write(reinterpret_cast<const char*>(&footer), sizeof(footer));
  if (!out) {
    throw SerializeError("write failure while saving F-table");
  }
}

FTable load_ftable(std::istream& in) {
  Crc32 crc;
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw SerializeError("not an RRIF F-table stream (bad magic)");
  }
  crc.update(magic, sizeof(magic));
  const auto version = read_pod<std::uint32_t>(in, crc);
  if (version != 1 && version != kVersion) {
    throw SerializeError("unsupported RRIF version " +
                         std::to_string(version));
  }
  const auto order = read_pod<std::uint32_t>(in, crc);
  if (order != kByteOrderProbe) {
    throw SerializeError("byte-order mismatch (file written on a "
                         "different-endian host)");
  }
  const auto m = read_pod<std::int32_t>(in, crc);
  const auto n = read_pod<std::int32_t>(in, crc);
  if (m < 0 || n < 0 || m > kMaxExtent || n > kMaxExtent) {
    throw SerializeError("implausible F-table dimensions " +
                         std::to_string(m) + " x " + std::to_string(n));
  }
  // Before allocating Θ(M²N²): on seekable streams the remaining byte
  // count is known, so a corrupted dimension field is caught here rather
  // than surfacing as a giant allocation or a late truncation error.
  const std::size_t remaining = remaining_bytes(in);
  if (remaining != SIZE_MAX) {
    const std::size_t expect =
        body_bytes(m, n) - 20 + (version >= 2 ? sizeof(std::uint32_t) : 0);
    if (remaining != expect) {
      throw SerializeError(
          "F-table stream size does not match its header (" +
          std::to_string(remaining) + " bytes follow, expected " +
          std::to_string(expect) + "); truncated or corrupted");
    }
  }
  FTable table(m, n);
  const std::size_t block =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  for (int i1 = 0; i1 < m; ++i1) {
    for (int j1 = i1; j1 < m; ++j1) {
      in.read(reinterpret_cast<char*>(table.block(i1, j1)),
              static_cast<std::streamsize>(block * sizeof(float)));
      if (!in) {
        throw SerializeError("truncated F-table stream");
      }
      crc.update(table.block(i1, j1), block * sizeof(float));
    }
  }
  if (version >= 2) {
    const std::uint32_t computed = crc.value();
    std::uint32_t footer = 0;
    in.read(reinterpret_cast<char*>(&footer), sizeof(footer));
    if (!in) {
      throw SerializeError("truncated F-table stream (missing CRC footer)");
    }
    if (footer != computed) {
      throw SerializeError("F-table checksum mismatch (stored CRC32 " +
                           std::to_string(footer) + ", computed " +
                           std::to_string(computed) + "); file is corrupted");
    }
  }
  return table;
}

}  // namespace rri::core
