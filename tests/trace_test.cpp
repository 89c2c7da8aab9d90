/// Tests for rri::trace (src/trace): ring-buffer accounting, RAII span
/// balance under exceptions, Chrome trace JSON validity (strict parse,
/// non-negative ts/dur, stable lanes), solver phase piggy-backing, and
/// OpenMP lane assignment under a concurrent recording stress.

#include <gtest/gtest.h>

#include <omp.h>

#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "rri/core/bpmax.hpp"
#include "rri/obs/json.hpp"
#include "rri/obs/obs.hpp"
#include "rri/rna/random.hpp"
#include "rri/trace/trace.hpp"

namespace {

using namespace rri;

/// Enable tracing for the test body and restore a clean recorder after.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::reset();
    trace::set_enabled(true);
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
  }
};

/// Parse the current trace (strict; throws on malformed JSON) and
/// return the traceEvents array.
obs::JsonValue parse_trace() {
  return obs::json_parse(trace::to_chrome_json());
}

/// Collect (pid, tid, ts, dur) for every complete ("X") event.
struct SpanRec {
  std::string name;
  int pid;
  int tid;
  double ts;
  double dur;
};

std::vector<SpanRec> complete_events(const obs::JsonValue& root) {
  std::vector<SpanRec> spans;
  for (const obs::JsonValue& ev : root.get("traceEvents").as_array()) {
    if (ev.get("ph").as_string() != "X") {
      continue;
    }
    spans.push_back({ev.get("name").as_string(),
                     static_cast<int>(ev.get("pid").as_number()),
                     static_cast<int>(ev.get("tid").as_number()),
                     ev.get("ts").as_number(), ev.get("dur").as_number()});
  }
  return spans;
}

TEST_F(TraceTest, RecordsBalancedSpans) {
  {
    trace::ScopedSpan outer("outer");
    trace::ScopedSpan inner("inner");
  }
  const trace::TraceStats stats = trace::stats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.dropped, 0u);

  const auto spans = complete_events(parse_trace());
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRec& s : spans) {
    EXPECT_GE(s.ts, 0.0) << s.name;
    EXPECT_GE(s.dur, 0.0) << s.name;
    EXPECT_EQ(s.pid, trace::kProcMain);
  }
  // The inner span nests inside the outer one on the same lane.
  const SpanRec& outer = spans[0].name == "outer" ? spans[0] : spans[1];
  const SpanRec& inner = spans[0].name == "outer" ? spans[1] : spans[0];
  EXPECT_EQ(outer.tid, inner.tid);
  EXPECT_LE(outer.ts, inner.ts);
  EXPECT_GE(outer.ts + outer.dur, inner.ts + inner.dur);
}

TEST_F(TraceTest, SpansStayBalancedAcrossExceptions) {
  try {
    trace::ScopedSpan outer("throwing.outer");
    trace::ScopedSpan inner("throwing.inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // Both spans were closed by unwinding; a fresh span records cleanly
  // and the serialized trace parses with every span complete.
  {
    trace::ScopedSpan after("after");
  }
  EXPECT_EQ(trace::stats().recorded, 3u);
  const auto spans = complete_events(parse_trace());
  EXPECT_EQ(spans.size(), 3u);
}

TEST_F(TraceTest, RingWrapDropsOldestAndCounts) {
  // Capacity applies to buffers created after the call, so record from
  // a fresh thread (its buffer is created on first use).
  trace::set_default_capacity(16);
  std::thread recorder([] {
    for (int i = 0; i < 50; ++i) {
      trace::ScopedSpan s("wrap.span");
    }
  });
  recorder.join();
  trace::set_default_capacity(65536);

  const trace::TraceStats stats = trace::stats();
  EXPECT_EQ(stats.recorded, 16u);
  EXPECT_EQ(stats.dropped, 34u);

  const obs::JsonValue root = parse_trace();
  EXPECT_EQ(complete_events(root).size(), 16u);
  EXPECT_EQ(root.get("otherData").get("dropped_spans").as_number(), 34.0);
}

TEST_F(TraceTest, InstantAndFlowEventsSerialize) {
  trace::instant("marker");
  const std::uint64_t id = trace::next_flow_id();
  trace::flow_out("msg", id);
  trace::flow_in("msg", id);

  const obs::JsonValue root = parse_trace();
  int instants = 0, outs = 0, ins = 0;
  for (const obs::JsonValue& ev : root.get("traceEvents").as_array()) {
    const std::string& ph = ev.get("ph").as_string();
    if (ph == "i") {
      ++instants;
    } else if (ph == "s") {
      ++outs;
      EXPECT_EQ(ev.get("name").as_string(), "msg");
    } else if (ph == "f") {
      ++ins;
      EXPECT_EQ(ev.get("bp").as_string(), "e");
    }
  }
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(outs, 1);
  EXPECT_EQ(ins, 1);
}

TEST_F(TraceTest, LaneScopeRoutesAndRestores) {
  {
    trace::LaneScope rank_lane(trace::kProcRanks, 7);
    trace::ScopedSpan s("rank.work");
    EXPECT_EQ(trace::current_lane().pid, trace::kProcRanks);
    EXPECT_EQ(trace::current_lane().tid, 7);
  }
  EXPECT_EQ(trace::current_lane().pid, trace::kProcMain);
  {
    trace::ScopedSpan s("main.work");
  }

  const auto spans = complete_events(parse_trace());
  ASSERT_EQ(spans.size(), 2u);
  for (const SpanRec& s : spans) {
    if (s.name == "rank.work") {
      EXPECT_EQ(s.pid, trace::kProcRanks);
      EXPECT_EQ(s.tid, 7);
    } else {
      EXPECT_EQ(s.pid, trace::kProcMain);
    }
  }
}

TEST_F(TraceTest, SolverEmitsObsPhaseSpans) {
  obs::set_enabled(true);
  std::mt19937_64 rng(11);
  const auto s1 = rna::random_sequence(40, rng);
  const auto s2 = rna::random_sequence(30, rng);
  const auto model = rna::ScoringModel::bpmax_default();
  core::BpmaxOptions opt;
  opt.variant = core::Variant::kHybridTiled;
  (void)core::bpmax_solve(s1, s2, model, opt);
  obs::set_enabled(false);

  std::set<std::string> names;
  for (const SpanRec& s : complete_events(parse_trace())) {
    names.insert(s.name);
    EXPECT_GE(s.ts, 0.0);
    EXPECT_GE(s.dur, 0.0);
  }
  // Spans piggy-back on the obs phase scopes plus the per-thread
  // parallel-region spans added in the kernels.
  EXPECT_TRUE(names.count("fill")) << "obs phases did not reach the trace";
  EXPECT_TRUE(names.count("dmp_band"));
  EXPECT_TRUE(names.count("dmp_band.omp"));
}

TEST_F(TraceTest, OpenMpThreadsGetDistinctLanes) {
  const int want = std::min(4, omp_get_max_threads());
#pragma omp parallel num_threads(want)
  {
    for (int i = 0; i < 100; ++i) {
      trace::ScopedSpan s("omp.stress");
    }
  }

  std::set<std::pair<int, int>> lanes;
  for (const SpanRec& s : complete_events(parse_trace())) {
    EXPECT_EQ(s.pid, trace::kProcMain);
    lanes.insert({s.pid, s.tid});
  }
  EXPECT_EQ(lanes.size(), static_cast<std::size_t>(want));
  EXPECT_EQ(trace::stats().recorded, static_cast<std::size_t>(want) * 100u);
}

TEST_F(TraceTest, MetadataNamesEveryLaneOnce) {
  {
    trace::ScopedSpan s("meta.main");
    trace::LaneScope serve_lane(trace::kProcServe, 2);
    trace::ScopedSpan w("meta.worker");
  }
  const obs::JsonValue root = parse_trace();
  int thread_names = 0, process_names = 0;
  std::set<std::pair<int, int>> named;
  for (const obs::JsonValue& ev : root.get("traceEvents").as_array()) {
    if (ev.get("ph").as_string() != "M") {
      continue;
    }
    const std::string& what = ev.get("name").as_string();
    if (what == "thread_name") {
      ++thread_names;
      EXPECT_TRUE(named
                      .insert({static_cast<int>(ev.get("pid").as_number()),
                               static_cast<int>(ev.get("tid").as_number())})
                      .second)
          << "duplicate thread_name metadata";
    } else if (what == "process_name") {
      ++process_names;
    }
  }
  EXPECT_EQ(thread_names, 2);  // main lane + the serve worker lane
  EXPECT_EQ(process_names, 2);
}

TEST_F(TraceTest, ResetClearsEventsAndCounters) {
  {
    trace::ScopedSpan s("reset.me");
  }
  EXPECT_GT(trace::stats().recorded, 0u);
  trace::reset();
  const trace::TraceStats stats = trace::stats();
  EXPECT_EQ(stats.recorded, 0u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_TRUE(complete_events(parse_trace()).empty());
}

TEST_F(TraceTest, DisabledRecorderStoresNothing) {
  trace::set_enabled(false);
  {
    trace::ScopedSpan s("invisible");
    trace::instant("also.invisible");
  }
  EXPECT_EQ(trace::stats().recorded, 0u);
}

TEST(TraceRing, LaneOnlyThreadsReserveNoRing) {
  // Serve workers enter a lane for their whole loop even with tracing
  // off; that must not allocate (and, as the registry keeps every
  // thread's buffer, leak) an event ring per worker thread.
  trace::set_enabled(false);
  const std::size_t before = trace::stats().reserved;
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w] {
      RRI_TRACE_LANE(trace::kProcServe, w);
      RRI_TRACE_SPAN("never.recorded");
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
  EXPECT_EQ(trace::stats().reserved, before);

  // The first recorded event allocates that thread's ring, at full size.
  trace::set_enabled(true);
  std::thread([] { trace::instant("first.event"); }).join();
  trace::set_enabled(false);
  EXPECT_EQ(trace::stats().reserved, before + trace::default_capacity());
  trace::reset();
}

TEST(TraceHw, DegradesGracefully) {
  trace::start_hw();  // idempotent; may or may not find perf_event
  const trace::HwSummary hw = trace::read_hw();
  if (hw.valid()) {
    EXPECT_STREQ(trace::hw_backend_name(hw.backend), "perf_event");
    EXPECT_GE(hw.cycles, 0.0);
    EXPECT_GE(hw.instructions, 0.0);
  } else {
    EXPECT_STREQ(trace::hw_backend_name(hw.backend), "unavailable");
    EXPECT_EQ(hw.cycles, 0.0);
    EXPECT_EQ(hw.ipc(), 0.0);
  }
}

}  // namespace
