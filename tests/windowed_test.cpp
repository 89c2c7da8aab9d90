#include <gtest/gtest.h>

#include <random>

#include "rri/core/bppart.hpp"
#include "rri/core/windowed.hpp"
#include "rri/rna/random.hpp"

namespace {

using namespace rri;
using core::ScanOptions;

TEST(Windowed, SingleWindowEqualsFullSolve) {
  std::mt19937_64 rng(1);
  const auto long_strand = rna::random_sequence(20, rng);
  const auto short_strand = rna::random_sequence(8, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  ScanOptions opt;
  opt.window = 64;  // >= sequence length: one window covering everything
  opt.stride = 16;
  const auto scores = core::scan_windows(long_strand, short_strand, model, opt);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_EQ(scores[0].offset, 0);
  EXPECT_EQ(scores[0].length, 20);
  EXPECT_EQ(scores[0].score,
            core::bpmax_score(long_strand, short_strand, model,
                              opt.solver));
}

TEST(Windowed, OffsetsFollowStride) {
  std::mt19937_64 rng(2);
  const auto long_strand = rna::random_sequence(40, rng);
  const auto short_strand = rna::random_sequence(5, rng);
  ScanOptions opt;
  opt.window = 10;
  opt.stride = 8;
  const auto scores = core::scan_windows(
      long_strand, short_strand, rna::ScoringModel::bpmax_default(), opt);
  // Offsets 0, 8, 16, 24, 32; the window starting at 32 reaches the end
  // (truncated to length 8) and terminates the scan.
  ASSERT_EQ(scores.size(), 5u);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i].offset, static_cast<int>(i) * 8);
  }
  EXPECT_EQ(scores.back().length, 8);
  EXPECT_GE(scores.back().offset + opt.window,
            static_cast<int>(long_strand.size()));
}

TEST(Windowed, WindowScoreMonotoneInWindowLength) {
  // A longer window can only add structure options.
  std::mt19937_64 rng(3);
  const auto long_strand = rna::random_sequence(24, rng);
  const auto short_strand = rna::random_sequence(6, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  float prev = -1.0f;
  for (const int w : {6, 10, 14, 18}) {
    ScanOptions opt;
    opt.window = w;
    opt.stride = 1000;  // only offset 0
    const auto scores =
        core::scan_windows(long_strand, short_strand, model, opt);
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_GE(scores[0].score, prev);
    prev = scores[0].score;
  }
}

TEST(Windowed, ParallelAndSerialAgree) {
  std::mt19937_64 rng(4);
  const auto long_strand = rna::random_sequence(48, rng);
  const auto short_strand = rna::random_sequence(6, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  for (const auto algebra :
       {semiring::Algebra::kTropical, semiring::Algebra::kLogSumExp}) {
    ScanOptions par;
    par.window = 12;
    par.stride = 6;
    par.parallel_windows = true;
    par.algebra = algebra;
    ScanOptions ser = par;
    ser.parallel_windows = false;
    const auto a = core::scan_windows(long_strand, short_strand, model, par);
    const auto b = core::scan_windows(long_strand, short_strand, model, ser);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].offset, b[i].offset);
      EXPECT_EQ(a[i].score, b[i].score);
      if (algebra == semiring::Algebra::kLogSumExp) {
        // Inside the window loop BPPart's band driver runs nested on one
        // thread; a top-level solve of the same slice must agree.
        const rna::Sequence slice{std::vector<rna::Base>(
            long_strand.bases().begin() + a[i].offset,
            long_strand.bases().begin() + a[i].offset + a[i].length)};
        EXPECT_EQ(a[i].score, static_cast<float>(core::bppart_log_z(
                                  slice, short_strand, model)));
      }
    }
  }
}

TEST(Windowed, PlantedSiteDetected) {
  // Plant the reverse complement of the short strand inside a random
  // backdrop; the top window must overlap the plant.
  std::mt19937_64 rng(5);
  const auto site = rna::random_sequence(10, rng, 0.8);  // GC-rich target
  // Our convention: strand 2 is already reversed, so the planted site
  // that pairs perfectly in parallel order is the complement of the
  // strand-2 sequence.
  const auto planted = site.complemented();
  auto backdrop = rna::Sequence(std::vector<rna::Base>(
      60, rna::Base::A));  // poly-A cannot pair with anything but U
  std::vector<rna::Base> bases = backdrop.bases();
  const int plant_at = 30;
  for (std::size_t i = 0; i < planted.size(); ++i) {
    bases[static_cast<std::size_t>(plant_at) + i] = planted[i];
  }
  const rna::Sequence genome{std::move(bases)};
  ScanOptions opt;
  opt.window = 10;
  opt.stride = 5;
  const auto scores = core::scan_windows(
      genome, site, rna::ScoringModel::bpmax_default(), opt);
  const auto top = core::top_windows(scores, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_GE(top[0].offset + top[0].length, plant_at);
  EXPECT_LE(top[0].offset, plant_at + static_cast<int>(planted.size()));
  EXPECT_GT(top[0].score, 0.0f);
}

TEST(Windowed, TopWindowsOrderingAndTies) {
  std::vector<core::WindowScore> scores = {
      {0, 10, 5.0f}, {10, 10, 9.0f}, {20, 10, 9.0f}, {30, 10, 1.0f}};
  const auto top = core::top_windows(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].offset, 10);  // tie broken by offset
  EXPECT_EQ(top[1].offset, 20);
  EXPECT_EQ(top[2].offset, 0);
}

TEST(Windowed, TopWindowsHandlesShortInput) {
  const auto top = core::top_windows({{0, 5, 1.0f}}, 10);
  EXPECT_EQ(top.size(), 1u);
  EXPECT_TRUE(core::top_windows({}, 3).empty());
}

TEST(Windowed, EmptyLongStrand) {
  const auto scores = core::scan_windows(
      rna::Sequence{}, rna::Sequence::from_string("GC"),
      rna::ScoringModel::bpmax_default(), {});
  EXPECT_TRUE(scores.empty());
}

}  // namespace
