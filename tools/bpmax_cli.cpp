/// bpmax: command-line BPMax solver — the end-user face of the library.
///
/// Solve mode (default): score two strands and print the joint structure.
///   bpmax GGGAAACCC UUGCCAAGG
///   bpmax --fasta target.fa guide.fa
/// Scan mode: slide a window along the first (long) strand.
///   bpmax --scan --window 40 --stride 10 --fasta target.fa guide.fa
/// Distributed mode: solve over P simulated BSP ranks, optionally under
/// injected faults with checkpoint/restart (docs/fault_tolerance.md).
///   bpmax --ranks 4 --checkpoint ckpts --checkpoint-every 8 A.fa B.fa
///   bpmax --ranks 4 --faults 'crash:rank=2,step=7;drop:p=0.01' A.fa B.fa
///   bpmax --ranks 4 --resume ckpts A.fa B.fa
///
/// Both strands are read 5'->3'; the solver reverses strand 2 internally
/// (pass --no-reverse if your input is already 3'->5').

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "rri/core/bpmax.hpp"
#include "rri/core/ftable.hpp"
#include "rri/core/serialize.hpp"
#include "rri/core/traceback.hpp"
#include "rri/core/windowed.hpp"
#include "rri/harness/args.hpp"
#include "rri/harness/report.hpp"
#include "rri/harness/timing.hpp"
#include "rri/mpisim/checkpoint.hpp"
#include "rri/mpisim/dist_bpmax.hpp"
#include "rri/mpisim/fault.hpp"
#include "rri/obs/obs.hpp"
#include "rri/obs/report.hpp"
#include "rri/rna/fasta.hpp"
#include "rri/trace/trace.hpp"

namespace {

using namespace rri;

core::Variant parse_variant(const std::string& name, bool* ok) {
  *ok = true;
  for (const core::Variant v : core::all_variants()) {
    if (name == core::variant_name(v)) {
      return v;
    }
  }
  *ok = false;
  return core::Variant::kHybridTiled;
}

/// "32x4x0" or "32,4,0" -> TileShape3.
core::TileShape3 parse_tile(std::string text, bool* ok) {
  std::replace(text.begin(), text.end(), 'x', ',');
  int parts[3] = {0, 0, 0};
  int count = 0;
  std::istringstream in(text);
  std::string piece;
  while (std::getline(in, piece, ',')) {
    if (count < 3) {
      parts[count] = std::atoi(piece.c_str());
    }
    ++count;
  }
  *ok = (count == 3);
  return core::TileShape3{parts[0], parts[1], parts[2]};
}

rna::Sequence load_sequence(const std::string& arg, bool fasta) {
  if (fasta) {
    const auto records = rna::read_fasta_file(arg);
    if (records.empty()) {
      throw rna::ParseError("no records in " + arg);
    }
    return records.front().sequence;
  }
  return rna::Sequence::from_string(arg);
}

int save_table(const std::string& save_path, const core::FTable& table) {
  std::ofstream out(save_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bpmax: cannot write %s\n", save_path.c_str());
    return 2;
  }
  core::save_ftable(out, table);
  return 0;
}

void print_structure(const core::BpmaxResult& result, const rna::Sequence& s1,
                     const rna::Sequence& s2_fwd, const rna::Sequence& s2,
                     const rna::ScoringModel& model, bool reverse) {
  const auto js = core::traceback(result, s1, s2, model);
  const auto rendered = core::render_structure(
      js, static_cast<int>(s1.size()), static_cast<int>(s2.size()));
  std::string anno2 = rendered.strand2;
  std::string seq2_text = s2.to_string();
  if (reverse) {
    std::reverse(anno2.begin(), anno2.end());
    for (char& c : anno2) {
      c = c == '(' ? ')' : (c == ')' ? '(' : c);
    }
    seq2_text = s2_fwd.to_string();
  }
  std::printf("strand1 5'->3': %s\n                %s\n",
              s1.to_string().c_str(), rendered.strand1.c_str());
  std::printf("strand2 5'->3': %s\n                %s\n",
              seq2_text.c_str(), anno2.c_str());
  std::printf("pairs: %zu intra(1), %zu intra(2), %zu inter\n",
              js.intra1.size(), js.intra2.size(), js.inter.size());
}

int run_solve(const rna::Sequence& s1, const rna::Sequence& s2_fwd,
              const rna::ScoringModel& model, const core::BpmaxOptions& opts,
              bool reverse, bool csv, bool structure,
              const std::string& save_path) {
  const rna::Sequence s2 = reverse ? s2_fwd.reversed() : s2_fwd;
  harness::StopWatch sw;
  const auto result = core::bpmax_solve(s1, s2, model, opts);
  const double secs = sw.seconds();
  if (!save_path.empty()) {
    if (const int rc = save_table(save_path, result.f)) {
      return rc;
    }
  }
  if (csv) {
    harness::ReportTable table({"m", "n", "score", "seconds", "variant"});
    table.add_row({std::to_string(s1.size()), std::to_string(s2.size()),
                   harness::fmt_double(result.score, 1),
                   harness::fmt_double(secs, 4),
                   core::variant_name(opts.variant)});
    table.print_csv(std::cout);
  } else {
    std::printf("score: %.0f   (M=%zu, N=%zu, %s, %.3fs)\n",
                static_cast<double>(result.score), s1.size(), s2.size(),
                core::variant_name(opts.variant), secs);
  }
  if (structure && !s1.empty() && !s2.empty()) {
    print_structure(result, s1, s2_fwd, s2, model, reverse);
  }
  return 0;
}

/// Solve over `ranks` simulated BSP processes, optionally under an
/// injected fault plan with checkpoint/restart (see
/// docs/fault_tolerance.md). Exit code 2: bad arguments; 3: the
/// recovery budget was exhausted.
int run_distributed(const rna::Sequence& s1, const rna::Sequence& s2_fwd,
                    const rna::ScoringModel& model, bool reverse, bool csv,
                    bool structure, const std::string& save_path, int ranks,
                    const std::string& faults_spec,
                    const std::string& checkpoint_dir, int checkpoint_every,
                    const std::string& resume_dir, int max_retries) {
  const rna::Sequence s2 = reverse ? s2_fwd.reversed() : s2_fwd;
  mpisim::FaultPlan plan;
  if (!faults_spec.empty()) {
    try {
      plan = mpisim::FaultPlan::parse(faults_spec);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bpmax: %s\n", e.what());
      return 2;
    }
  }
  mpisim::RecoveryPolicy policy;
  policy.max_retries = max_retries;
  std::unique_ptr<mpisim::FileCheckpointStore> store;
  const std::string& dir =
      checkpoint_dir.empty() ? resume_dir : checkpoint_dir;
  if (!dir.empty()) {
    store = std::make_unique<mpisim::FileCheckpointStore>(dir);
    policy.store = store.get();
    policy.checkpoint_every = checkpoint_every;
    policy.resume = !resume_dir.empty();
  }
  harness::StopWatch sw;
  mpisim::DistributedResult result;
  try {
    result = mpisim::distributed_bpmax(s1, s2, model, ranks, std::move(plan),
                                       policy);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bpmax: distributed solve failed: %s\n", e.what());
    return 3;
  }
  const double secs = sw.seconds();
  if (!save_path.empty() && result.table.m() > 0) {
    if (const int rc = save_table(save_path, result.table)) {
      return rc;
    }
  }
  const auto& rec = result.recovery;
  if (csv) {
    harness::ReportTable table({"m", "n", "score", "seconds", "ranks",
                                "supersteps", "faults", "recoveries"});
    table.add_row({std::to_string(s1.size()), std::to_string(s2.size()),
                   harness::fmt_double(result.score, 1),
                   harness::fmt_double(secs, 4), std::to_string(ranks),
                   std::to_string(result.comm.supersteps),
                   std::to_string(result.fault_events.size()),
                   std::to_string(rec.recoveries)});
    table.print_csv(std::cout);
  } else {
    std::printf("score: %.0f   (M=%zu, N=%zu, %d ranks, %zu supersteps, "
                "%.3fs)\n",
                static_cast<double>(result.score), s1.size(), s2.size(),
                ranks, result.comm.supersteps, secs);
    if (rec.resume_diagonal >= 0) {
      std::printf("resumed from checkpoint at diagonal %d\n",
                  rec.resume_diagonal);
    }
    if (!result.fault_events.empty() || rec.recoveries > 0) {
      std::printf("faults: %zu injected (%d rank(s) lost); recoveries: %d "
                  "(%d from checkpoint, %d from scratch, %d corrupt "
                  "supersteps); checkpoints written: %d\n",
                  result.fault_events.size(), rec.ranks_lost, rec.recoveries,
                  rec.checkpoint_restores, rec.scratch_restarts,
                  rec.corrupt_supersteps, rec.checkpoints_written);
    }
  }
  if (structure && !s1.empty() && !s2.empty() && result.table.m() > 0) {
    core::BpmaxResult solved;
    solved.score = result.score;
    solved.s1 = core::STable(s1, model);
    solved.s2 = core::STable(s2, model);
    solved.f = std::move(result.table);
    print_structure(solved, s1, s2_fwd, s2, model, reverse);
  }
  return 0;
}

int run_scan(const rna::Sequence& target, const rna::Sequence& guide_fwd,
             const rna::ScoringModel& model, const core::ScanOptions& scan,
             bool reverse, bool csv, int top_k) {
  const auto scores = core::scan_windows(
      target, reverse ? guide_fwd.reversed() : guide_fwd, model, scan);
  const auto top = core::top_windows(scores, static_cast<std::size_t>(top_k));
  harness::ReportTable table({"offset", "length", "score"});
  for (const auto& w : top) {
    table.add_row({std::to_string(w.offset), std::to_string(w.length),
                   harness::fmt_double(w.score, 1)});
  }
  if (csv) {
    table.print_csv(std::cout);
    return 0;
  }
  std::printf("scanned %zu windows (window=%d stride=%d); top %zu:\n",
              scores.size(), scan.window, scan.stride, top.size());
  table.print(std::cout);
  if (!top.empty() && top[0].length > 0 && !guide_fwd.empty()) {
    // Re-solve the best window and show its predicted structure.
    const auto& best = top[0];
    const rna::Sequence guide =
        reverse ? guide_fwd.reversed() : guide_fwd;
    std::vector<rna::Base> slice(
        target.bases().begin() + best.offset,
        target.bases().begin() + best.offset + best.length);
    const rna::Sequence window_seq{std::move(slice)};
    const auto result =
        core::bpmax_solve(window_seq, guide, model, scan.solver);
    const auto js = core::traceback(result, window_seq, guide, model);
    const auto rendered = core::render_structure(
        js, best.length, static_cast<int>(guide.size()));
    std::printf("\nbest site (target[%d..%d]):\n", best.offset,
                best.offset + best.length - 1);
    std::printf("  target: %s\n          %s\n",
                window_seq.to_string().c_str(), rendered.strand1.c_str());
    std::string anno2 = rendered.strand2;
    std::string guide_text = guide.to_string();
    if (reverse) {
      std::reverse(anno2.begin(), anno2.end());
      for (char& c : anno2) {
        c = c == '(' ? ')' : (c == ')' ? '(' : c);
      }
      guide_text = guide_fwd.to_string();
    }
    std::printf("  guide:  %s\n          %s\n", guide_text.c_str(),
                anno2.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ArgParser args(
      "bpmax",
      "BPMax RNA-RNA interaction: maximum weighted base pairs of the joint "
      "secondary structure of two strands.");
  args.set_positional_usage("STRAND1 STRAND2 (sequences, or files with "
                            "--fasta)", 2, 2);
  args.add_flag("fasta", "treat the positional arguments as FASTA files");
  args.add_flag("scan", "scan strand 1 with a sliding window against "
                        "strand 2");
  args.add_flag("csv", "machine-readable CSV output");
  args.add_flag("no-structure", "solve mode: skip the traceback rendering");
  args.add_flag("no-reverse", "strand 2 is already 3'->5'");
  args.add_flag("unit-weights", "score every admissible pair 1 instead of "
                                "GC=3/AU=2/GU=1");
  args.add_option("variant", "kernel variant: baseline, serial_permuted, "
                             "coarse, fine, hybrid, hybrid_tiled",
                  "hybrid_tiled");
  args.add_option("tile", "R0 tile shape i2xk2xj2 (0 = untiled dimension)",
                  "32x4x0");
  args.add_option("threads", "OpenMP threads (0 = runtime default)", "0");
  args.add_option("min-hairpin", "minimum unpaired bases inside an "
                                 "intramolecular pair", "0");
  args.add_option("window", "scan mode: window length", "64");
  args.add_option("stride", "scan mode: window step", "16");
  args.add_option("top", "scan mode: number of windows to report", "10");
  args.add_option("save-table", "solve mode: write the full F-table "
                                "(binary RRIF) for later traceback", "");
  args.add_option("ranks", "solve over P simulated BSP ranks (0 = "
                           "shared-memory solver)", "0");
  args.add_option("faults", "distributed mode: inject faults, e.g. "
                            "'crash:rank=2,step=7;drop:p=0.01,seed=42' "
                            "(kinds: crash, drop, dup, flip)", "");
  args.add_option("checkpoint", "distributed mode: write checkpoints to "
                                "this directory", "");
  args.add_option("checkpoint-every", "distributed mode: checkpoint every "
                                      "K diagonals", "8");
  args.add_option("resume", "distributed mode: resume from the latest "
                            "valid checkpoint in this directory", "");
  args.add_option("max-retries", "distributed mode: recovery attempts "
                                 "before giving up", "8");
  args.add_option("max-mem", "refuse runs whose DP tables would exceed "
                             "this many GiB", "8");
  args.add_implicit_option("profile",
                           "print a per-phase perf breakdown after the run; "
                           "--profile=FILE.json also writes the JSON report "
                           "(schema rri-obs-report/1, see tools/perf_diff)",
                           "-");
  args.add_implicit_option("trace",
                           "record a per-thread span timeline and write "
                           "Chrome trace-event JSON (chrome://tracing / "
                           "Perfetto); --trace alone writes trace.json",
                           "trace.json");

  if (!args.parse(argc, argv, std::cerr)) {
    return args.help_requested() ? 0 : 2;
  }

  bool ok = true;
  const core::Variant variant = parse_variant(args.option("variant"), &ok);
  if (!ok) {
    std::fprintf(stderr, "bpmax: unknown variant '%s'\n",
                 args.option("variant").c_str());
    return 2;
  }
  core::BpmaxOptions opts;
  opts.variant = variant;
  opts.tile = parse_tile(args.option("tile"), &ok);
  if (!ok) {
    std::fprintf(stderr, "bpmax: bad tile shape '%s'\n",
                 args.option("tile").c_str());
    return 2;
  }
  opts.num_threads = args.option_int("threads");

  auto model = args.flag("unit-weights") ? rna::ScoringModel::unit()
                                         : rna::ScoringModel::bpmax_default();
  model.set_min_hairpin(args.option_int("min-hairpin"));

  const std::string profile = args.option("profile");
  if (!profile.empty()) {
#if RRI_OBS_ENABLED
    obs::set_enabled(true);
#else
    std::fprintf(stderr,
                 "bpmax: --profile requested but instrumentation was "
                 "compiled out (-DRRI_OBS=OFF); times will be empty\n");
#endif
  }
  const std::string trace_path = args.option("trace");
  if (!trace_path.empty()) {
#if RRI_OBS_ENABLED
    // The span set piggy-backs on the obs phase scopes, so tracing
    // implies obs recording.
    obs::set_enabled(true);
    trace::set_enabled(true);
    trace::start_hw();
#else
    std::fprintf(stderr,
                 "bpmax: --trace requested but instrumentation was "
                 "compiled out (-DRRI_OBS=OFF); the trace will be empty\n");
#endif
  }

  const int ranks = args.option_int("ranks");
  const bool distributed =
      ranks > 0 || !args.option("faults").empty() ||
      !args.option("checkpoint").empty() || !args.option("resume").empty();
  if (distributed && args.flag("scan")) {
    std::fprintf(stderr, "bpmax: --scan and --ranks/--faults/--checkpoint/"
                         "--resume do not combine\n");
    return 2;
  }
  if (distributed && ranks < 1) {
    std::fprintf(stderr, "bpmax: --faults/--checkpoint/--resume need "
                         "--ranks >= 1\n");
    return 2;
  }

  try {
    harness::StopWatch run_watch;
    int rc = 0;
    const auto s1 = load_sequence(args.positional()[0], args.flag("fasta"));
    const auto s2 = load_sequence(args.positional()[1], args.flag("fasta"));

    // Up-front capacity guard: the F-table footprint (core::table_bytes)
    // is known from the strand lengths, so an impossible run is a clear
    // message here instead of an uncaught std::bad_alloc minutes in. Scan
    // mode allocates window-sized tables, one per window thread
    // (core::live_windows); distributed mode replicates the table once per
    // rank.
    char* mm_end = nullptr;
    const std::string max_mem_text = args.option("max-mem");
    const double max_mem_gib = std::strtod(max_mem_text.c_str(), &mm_end);
    if (mm_end == max_mem_text.c_str() || *mm_end != '\0' ||
        !(max_mem_gib > 0.0)) {
      std::fprintf(stderr, "bpmax: --max-mem must be a positive GiB "
                           "count, got '%s'\n", max_mem_text.c_str());
      return 2;
    }
    const std::size_t eff_m =
        args.flag("scan")
            ? std::min<std::size_t>(
                  static_cast<std::size_t>(
                      std::max(args.option_int("window"), 0)),
                  s1.size())
            : s1.size();
    core::ScanOptions scan;
    scan.window = args.option_int("window");
    scan.stride = args.option_int("stride");
    scan.solver = opts;
    const double replicas =
        distributed ? static_cast<double>(ranks)
        : args.flag("scan")
            ? static_cast<double>(core::live_windows(s1.size(), scan))
            : 1.0;
    const double need_gib =
        core::table_bytes(eff_m, s2.size(), semiring::Algebra::kTropical) *
        replicas / (1024.0 * 1024.0 * 1024.0);
    if (need_gib > max_mem_gib) {
      std::fprintf(stderr,
                   "bpmax: table would need ~%.1f GiB (limit %.1f GiB; use "
                   "--window or raise --max-mem)\n", need_gib, max_mem_gib);
      return 2;
    }

    if (args.flag("scan")) {
      rc = run_scan(s1, s2, model, scan, !args.flag("no-reverse"),
                    args.flag("csv"), args.option_int("top"));
    } else if (distributed) {
      rc = run_distributed(s1, s2, model, !args.flag("no-reverse"),
                           args.flag("csv"), !args.flag("no-structure"),
                           args.option("save-table"), ranks,
                           args.option("faults"), args.option("checkpoint"),
                           args.option_int("checkpoint-every"),
                           args.option("resume"),
                           args.option_int("max-retries"));
    } else {
      rc = run_solve(s1, s2, model, opts, !args.flag("no-reverse"),
                     args.flag("csv"), !args.flag("no-structure"),
                     args.option("save-table"));
    }
    if (!trace_path.empty()) {
      // Mirror the measured hw counters into obs counters first, so a
      // simultaneous --profile report carries them too.
      const trace::HwSummary hw = trace::read_hw();
      obs::set_counter("trace.hw_backend", hw.backend);
      if (hw.valid()) {
        obs::set_counter("hw.cycles", hw.cycles);
        obs::set_counter("hw.instructions", hw.instructions);
        obs::set_counter("hw.ipc", hw.ipc());
      }
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "bpmax: cannot write %s\n", trace_path.c_str());
        return 2;
      }
      trace::write_chrome_json(out);
      const trace::TraceStats ts = trace::stats();
      std::printf("trace: %s (%zu events, %zu dropped, hw: %s)\n",
                  trace_path.c_str(), ts.recorded, ts.dropped,
                  trace::hw_backend_name(trace::read_hw().backend));
    }
    if (!profile.empty()) {
      const auto report =
          obs::capture_report("bpmax --profile", run_watch.seconds());
      std::printf("\n");
      obs::print_phase_table(std::cout, report);
      if (profile != "-") {
        std::ofstream out(profile);
        if (!out) {
          std::fprintf(stderr, "bpmax: cannot write %s\n", profile.c_str());
          return 2;
        }
        obs::write_json(out, report);
        std::printf("perf report: %s\n", profile.c_str());
      }
    }
    return rc;
  } catch (const rna::ParseError& e) {
    std::fprintf(stderr, "bpmax: %s\n", e.what());
    return 2;
  } catch (const core::SerializeError& e) {
    std::fprintf(stderr, "bpmax: %s\n", e.what());
    return 2;
  } catch (const std::runtime_error& e) {
    // e.g. an unwritable checkpoint directory or a mismatched resume
    std::fprintf(stderr, "bpmax: %s\n", e.what());
    return 2;
  }
}
