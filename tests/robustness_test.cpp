#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "rri/core/bpmax.hpp"
#include "rri/core/serialize.hpp"
#include "rri/core/traceback.hpp"
#include "rri/rna/fasta.hpp"
#include "rri/rna/random.hpp"
#include "rri/serve/chaos.hpp"
#include "rri/serve/daemon.hpp"
#include "rri/serve/tenant.hpp"

namespace {

using namespace rri;

// -------------------------------------------------------- input fuzzing

/// Random byte soup must never crash the FASTA parser: it either parses
/// or throws ParseError.
class FastaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastaFuzz, ParserNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> len(0, 200);
  // Mix printable garbage with FASTA-ish characters to reach deep paths.
  const std::string alphabet =
      ">;ACGUTacgut\n\r\t XN0123-|{}=";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::string soup;
    const int l = len(rng);
    for (int i = 0; i < l; ++i) {
      soup.push_back(alphabet[pick(rng)]);
    }
    std::istringstream in(soup);
    try {
      const auto records = rna::read_fasta(in);
      for (const auto& rec : records) {
        // Anything parsed must render back to pure ACGU.
        for (const char c : rec.sequence.to_string()) {
          EXPECT_TRUE(c == 'A' || c == 'C' || c == 'G' || c == 'U');
        }
      }
    } catch (const rna::ParseError&) {
      // fine: rejected with a typed error
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastaFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(SequenceFuzz, FromStringNeverCrashes) {
  std::mt19937_64 rng(99);
  std::uniform_int_distribution<int> byte(0, 255);
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup;
    std::uniform_int_distribution<int> len(0, 64);
    const int l = len(rng);
    for (int i = 0; i < l; ++i) {
      soup.push_back(static_cast<char>(byte(rng)));
    }
    try {
      const auto seq = rna::Sequence::from_string(soup);
      EXPECT_LE(seq.size(), soup.size());
    } catch (const rna::ParseError&) {
    }
  }
}

// -------------------------------------------------- corruption injection

TEST(FailureInjection, CorruptedRootCellBreaksTraceback) {
  std::mt19937_64 rng(7);
  const auto s1 = rna::random_sequence(8, rng);
  const auto s2 = rna::random_sequence(8, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  auto result = core::bpmax_solve(s1, s2, model);
  // A score no combination of weights {1,2,3} can reach exactly.
  result.f.at(0, 7, 0, 7) = 0.123f;
  result.score = 0.123f;
  EXPECT_THROW(core::traceback(result, s1, s2, model), std::logic_error);
}

TEST(FailureInjection, WrongModelBreaksTraceback) {
  // Tables filled under one model, traced under another: the achieving
  // case can no longer be recognized (unless scores coincide by luck,
  // which these lengths and weights do not allow).
  std::mt19937_64 rng(8);
  const auto s1 = rna::random_sequence(9, rng, 0.8);
  const auto s2 = rna::random_sequence(9, rng, 0.8);
  const auto weighted = rna::ScoringModel::bpmax_default();
  const auto result = core::bpmax_solve(s1, s2, weighted);
  auto skewed = rna::ScoringModel::bpmax_default();
  skewed.set_intra(rna::Base::G, rna::Base::C, 2.5f);
  skewed.set_inter(rna::Base::G, rna::Base::C, 2.5f);
  skewed.set_inter(rna::Base::C, rna::Base::G, 2.5f);
  EXPECT_THROW(core::traceback(result, s1, s2, skewed), std::logic_error);
}

// --------------------------------------------------------- serialization

TEST(Serialize, RoundTripsSolvedTable) {
  std::mt19937_64 rng(11);
  const auto s1 = rna::random_sequence(7, rng);
  const auto s2 = rna::random_sequence(9, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  const auto result = core::bpmax_solve(s1, s2, model);

  std::stringstream stream;
  core::save_ftable(stream, result.f);
  const core::FTable loaded = core::load_ftable(stream);
  ASSERT_EQ(loaded.m(), result.f.m());
  ASSERT_EQ(loaded.n(), result.f.n());
  for (int i1 = 0; i1 < loaded.m(); ++i1) {
    for (int j1 = i1; j1 < loaded.m(); ++j1) {
      for (int i2 = 0; i2 < loaded.n(); ++i2) {
        for (int j2 = i2; j2 < loaded.n(); ++j2) {
          ASSERT_EQ(loaded.at(i1, j1, i2, j2), result.f.at(i1, j1, i2, j2));
        }
      }
    }
  }
  // A loaded table supports traceback directly.
  core::BpmaxResult reconstructed;
  reconstructed.s1 = core::STable(s1, model);
  reconstructed.s2 = core::STable(s2, model);
  reconstructed.f = loaded;
  reconstructed.score = loaded.at(0, 6, 0, 8);
  const auto js = core::traceback(reconstructed, s1, s2, model);
  EXPECT_EQ(core::structure_score(js, s1, s2, model), result.score);
}

TEST(Serialize, EmptyTableRoundTrips) {
  std::stringstream stream;
  core::save_ftable(stream, core::FTable(0, 0));
  const auto loaded = core::load_ftable(stream);
  EXPECT_EQ(loaded.m(), 0);
  EXPECT_EQ(loaded.n(), 0);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream stream("GARBAGE DATA THAT IS NOT A TABLE");
  EXPECT_THROW(core::load_ftable(stream), core::SerializeError);
}

TEST(Serialize, TruncationRejected) {
  std::stringstream stream;
  core::save_ftable(stream, core::FTable(4, 4));
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream cut(bytes);
  EXPECT_THROW(core::load_ftable(cut), core::SerializeError);
}

TEST(Serialize, EmptyStreamRejected) {
  std::stringstream empty;
  EXPECT_THROW(core::load_ftable(empty), core::SerializeError);
}

TEST(Serialize, SavedSizeIsHalfTheBoundingBox) {
  const core::FTable table(10, 6);
  std::stringstream stream;
  core::save_ftable(stream, table);
  // 20-byte header + 4-byte CRC-32 footer (format v2).
  const std::size_t payload = stream.str().size() - 24;
  EXPECT_EQ(payload, 10u * 11u / 2u * 36u * sizeof(float));
  EXPECT_EQ(payload, table.allocated() * sizeof(float));
}

// ------------------------------------------- RRIF v2 integrity hardening

/// A solved table's serialized bytes — the corpus the fuzz tests mutate.
std::string solved_table_bytes(int m, int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto s1 = rna::random_sequence(m, rng);
  const auto s2 = rna::random_sequence(n, rng);
  const auto result =
      core::bpmax_solve(s1, s2, rna::ScoringModel::bpmax_default());
  std::stringstream stream;
  core::save_ftable(stream, result.f);
  return stream.str();
}

TEST(Serialize, Version1StreamsStillLoad) {
  const core::FTable saved = [] {
    std::mt19937_64 rng(21);
    const auto s1 = rna::random_sequence(6, rng);
    const auto s2 = rna::random_sequence(5, rng);
    return core::bpmax_solve(s1, s2, rna::ScoringModel::bpmax_default()).f;
  }();
  std::stringstream v2;
  core::save_ftable(v2, saved);
  // Rewrite as v1: drop the 4-byte CRC footer, patch the version word
  // (offset 4) back to 1 — byte-exact what the old serializer emitted.
  std::string bytes = v2.str();
  bytes.resize(bytes.size() - 4);
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  std::stringstream old(bytes);
  const auto loaded = core::load_ftable(old);
  ASSERT_EQ(loaded.m(), saved.m());
  ASSERT_EQ(loaded.n(), saved.n());
  EXPECT_EQ(loaded.at(0, saved.m() - 1, 0, saved.n() - 1),
            saved.at(0, saved.m() - 1, 0, saved.n() - 1));
}

TEST(Serialize, ChecksumMismatchNamesTheProblem) {
  std::string bytes = solved_table_bytes(5, 4, 22);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  std::stringstream in(bytes);
  try {
    core::load_ftable(in);
    FAIL() << "corrupted table loaded";
  } catch (const core::SerializeError& err) {
    EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos)
        << err.what();
  }
}

TEST(Serialize, TruncationFuzzAlwaysRejected) {
  const std::string bytes = solved_table_bytes(5, 4, 23);
  for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::stringstream cut(bytes.substr(0, keep));
    EXPECT_THROW(core::load_ftable(cut), core::SerializeError)
        << "accepted a stream cut to " << keep << " of " << bytes.size()
        << " bytes";
  }
}

TEST(Serialize, SingleBitFlipFuzzAlwaysRejected) {
  // Seekable v2 streams leave no undetectable single-bit flip: header
  // flips hit the field validation or the stream-size check, payload and
  // footer flips hit the CRC.
  const std::string bytes = solved_table_bytes(4, 3, 24);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string bad = bytes;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      std::stringstream in(bad);
      EXPECT_THROW(core::load_ftable(in), core::SerializeError)
          << "flip at byte " << pos << " bit " << bit << " went undetected";
    }
  }
}

TEST(Serialize, ByteSoupFuzzNeverCrashes) {
  std::mt19937_64 rng(25);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 256);
  for (int trial = 0; trial < 500; ++trial) {
    std::string soup;
    const int l = len(rng);
    soup.reserve(static_cast<std::size_t>(l));
    for (int i = 0; i < l; ++i) {
      soup.push_back(static_cast<char>(byte(rng)));
    }
    std::stringstream in(soup);
    EXPECT_THROW(core::load_ftable(in), core::SerializeError);
  }
}

TEST(Serialize, HostileDimensionsRejectedBeforeAllocation) {
  // A header claiming a huge table must be rejected up front (either the
  // extent bound or the stream-size check), not by attempting the
  // allocation.
  std::string bytes = solved_table_bytes(4, 3, 26);
  const std::int32_t huge = 60000;  // within the extent bound
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));  // m
  std::memcpy(bytes.data() + 16, &huge, sizeof(huge));  // n
  std::stringstream in(bytes);
  EXPECT_THROW(core::load_ftable(in), core::SerializeError);
}

// ------------------------------------------- serving-config fuzzing

/// The tenant-config parser faces operator-written files: truncation,
/// byte soup, and structurally-valid-but-wrong lines must all land on a
/// typed ParseError naming a line, never a crash or a silent accept of
/// nonsense limits.
TEST(TenantConfigFuzz, ByteSoupNeverCrashes) {
  std::mt19937_64 rng(31);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 300);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup;
    const int l = len(rng);
    for (int i = 0; i < l; ++i) {
      soup.push_back(static_cast<char>(byte(rng)));
    }
    std::istringstream in(soup);
    try {
      rri::serve::TenantConfig::parse(in);
    } catch (const rri::rna::ParseError&) {
      // fine: rejected with a typed, line-numbered error
    }
  }
}

TEST(TenantConfigFuzz, TruncationOfAValidFileNeverCrashes) {
  const std::string good =
      "{\"tenant\":\"acme\",\"rate_per_s\":2,\"burst\":4,"
      "\"max_concurrent\":8,\"max_mem_gib\":0.5}\n"
      "{\"tenant\":\"default\",\"rate_per_s\":1}\n";
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    std::istringstream in(good.substr(0, cut));
    try {
      rri::serve::TenantConfig::parse(in);
    } catch (const rri::rna::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("tenant config line"),
                std::string::npos)
          << "cut at " << cut << ": " << e.what();
    }
  }
}

TEST(TenantConfigFuzz, JsonShapedGarbageRejectedCleanly) {
  // JSON-valid lines with hostile values: every one must throw, none
  // may produce a config with negative or NaN limits.
  const char* lines[] = {
      "{\"tenant\":\"a\",\"rate_per_s\":-3}",
      "{\"tenant\":\"a\",\"rate_per_s\":1e999}",
      "{\"tenant\":\"a\",\"burst\":-1}",
      "{\"tenant\":\"a\",\"max_concurrent\":3.7}",
      "{\"tenant\":\"a\",\"max_concurrent\":1e12}",
      "{\"tenant\":\"a\",\"max_mem_gib\":\"lots\"}",
      "{\"tenant\":42}",
      "{\"tenant\":\"a\"} {\"tenant\":\"b\"}",
      "{\"tenant\":\"dup\"}\n{\"tenant\":\"dup\"}",
  };
  for (const char* text : lines) {
    std::istringstream in(text);
    EXPECT_THROW(rri::serve::TenantConfig::parse(in), rri::rna::ParseError)
        << text;
  }
}

TEST(ChaosPlanFuzz, ByteSoupNeverCrashes) {
  std::mt19937_64 rng(37);
  // Bias toward grammar-adjacent characters to reach deep parser paths.
  const std::string alphabet = "stalpreize:;,=0123456789.-eE \t\xff\x01";
  std::uniform_int_distribution<std::size_t> pick(0, alphabet.size() - 1);
  std::uniform_int_distribution<int> len(0, 80);
  for (int trial = 0; trial < 500; ++trial) {
    std::string soup;
    const int l = len(rng);
    for (int i = 0; i < l; ++i) {
      soup.push_back(alphabet[pick(rng)]);
    }
    try {
      rri::serve::ChaosPlan::parse(soup);
    } catch (const std::invalid_argument&) {
      // fine: rejected with a message naming the clause
    }
  }
}

TEST(ChaosPlanFuzz, TruncationOfAValidSpecNeverCrashes) {
  const std::string good = "stall:p=0.05,ms=40;split:p=0.3;reset:p=0.02,seed=7";
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    try {
      rri::serve::ChaosPlan::parse(good.substr(0, cut));
    } catch (const std::invalid_argument&) {
    }
  }
}

// ---------------------------------------------------- slowloris defense

/// A client that connects and trickles (or sends nothing) must not pin a
/// connection thread forever: with --idle-timeout armed the daemon sends
/// an idle_timeout error frame and hangs up on its own.
TEST(Slowloris, IdleConnectionTimedOutAndClosed) {
  rri::serve::DaemonConfig config;
  config.idle_timeout_s = 0.3;
  rri::serve::Daemon daemon(config);
  const int port = daemon.start();
  std::thread runner([&] { daemon.run(); });

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // Send a partial frame header — a length prefix promising bytes that
  // never come — then go silent, the classic slowloris shape.
  const char partial[3] = {0, 0, 0};
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));

  // The daemon must speak first: an idle_timeout error frame, then EOF.
  std::string got;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    got.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(got.find("idle_timeout"), std::string::npos)
      << "raw bytes: " << got;

  daemon.request_drain();
  runner.join();
  EXPECT_EQ(daemon.stats().idle_timeouts, 1u);
}

}  // namespace
