/// bppart: command-line BPPart solver — the interaction partition
/// function and base-pair pairing probabilities of two RNA strands,
/// computed by the BPMax kernel shapes under the log-sum-exp algebra
/// (docs/kernels.md "The algebra seam").
///
///   bppart GGGAAACCC UUGCCAAGG
///   bppart --temperature 2 --probs 5 GGGAAACCC UUGCCAAGG
///   bppart --fasta target.fa guide.fa --csv
///
/// Both strands are read 5'->3'; the solver reverses strand 2 internally
/// (pass --no-reverse if your input is already 3'->5'). Tables are
/// double-width: the --max-mem guard prices the packed M(M+1)/2·N²-cell
/// table (core::table_bytes) at 8 bytes per cell.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "rri/core/bppart.hpp"
#include "rri/core/ftable.hpp"
#include "rri/harness/args.hpp"
#include "rri/harness/report.hpp"
#include "rri/harness/timing.hpp"
#include "rri/obs/obs.hpp"
#include "rri/obs/report.hpp"
#include "rri/rna/fasta.hpp"
#include "rri/trace/trace.hpp"

namespace {

using namespace rri;

core::BppartVariant parse_variant(const std::string& name, bool* ok) {
  *ok = true;
  for (const core::BppartVariant v : core::all_bppart_variants()) {
    if (name == core::bppart_variant_name(v)) {
      return v;
    }
  }
  *ok = false;
  return core::BppartVariant::kRowParallel;
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

struct RankedPair {
  int a = 0;       ///< strand-1 position
  int b = 0;       ///< strand-2 position (solver orientation)
  double p = 0.0;  ///< pairing probability
};

/// The `top_k` most probable inter pairs, best first (ties by position).
std::vector<RankedPair> top_pairs(const std::vector<double>& prob, int m,
                                  int n, std::size_t top_k) {
  std::vector<RankedPair> ranked;
  for (int a = 0; a < m; ++a) {
    for (int b = 0; b < n; ++b) {
      const double p = prob[static_cast<std::size_t>(a) *
                                static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(b)];
      if (p > 0.0) {
        ranked.push_back({a, b, p});
      }
    }
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedPair& x, const RankedPair& y) {
              if (x.p != y.p) {
                return x.p > y.p;
              }
              if (x.a != y.a) {
                return x.a < y.a;
              }
              return x.b < y.b;
            });
  if (ranked.size() > top_k) {
    ranked.resize(top_k);
  }
  return ranked;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ArgParser args(
      "bppart",
      "BPPart RNA-RNA interaction: the log partition function over planar "
      "joint secondary structures and per-pair pairing probabilities, via "
      "the BPMax kernels under the log-sum-exp algebra.");
  args.set_positional_usage("STRAND1 STRAND2 (sequences, or files with "
                            "--fasta)", 2, 2);
  args.add_flag("fasta", "treat the positional arguments as FASTA files");
  args.add_flag("csv", "machine-readable CSV output");
  args.add_flag("no-reverse", "strand 2 is already 3'->5'");
  args.add_flag("unit-weights", "score every admissible pair 1 instead of "
                                "GC=3/AU=2/GU=1");
  args.add_option("temperature", "Boltzmann temperature: structures weigh "
                                 "exp(score/T)", "1");
  args.add_option("variant", "fill schedule: serial, row_parallel, tiled "
                             "(all bit-identical)", "row_parallel");
  args.add_option("tile", "i2-tile shape i2xk2xj2 for --variant tiled",
                  "32x4x0");
  args.add_option("threads", "OpenMP threads (0 = runtime default)", "0");
  args.add_option("min-hairpin", "minimum unpaired bases inside an "
                                 "intramolecular pair", "0");
  args.add_option("probs", "report the K most probable inter pairs "
                           "(0 = skip the outside pass)", "0");
  args.add_option("probs-out", "write the full M x N pairing-probability "
                               "matrix as JSONL rows to this path", "");
  args.add_option("max-mem", "refuse runs whose DP tables would exceed "
                             "this many GiB (8-byte cells)", "8");
  args.add_implicit_option("profile",
                           "print a per-phase perf breakdown after the run; "
                           "--profile=FILE.json also writes the JSON report "
                           "(schema rri-obs-report/1, see tools/perf_diff)",
                           "-");
  args.add_implicit_option("trace",
                           "record a per-thread span timeline and write "
                           "Chrome trace-event JSON; --trace alone writes "
                           "trace.json",
                           "trace.json");

  if (!args.parse(argc, argv, std::cerr)) {
    return args.help_requested() ? 0 : 2;
  }

  bool ok = true;
  core::BppartOptions opts;
  opts.variant = parse_variant(args.option("variant"), &ok);
  if (!ok) {
    std::fprintf(stderr, "bppart: unknown variant '%s' (known: serial, "
                         "row_parallel, tiled)\n",
                 args.option("variant").c_str());
    return 2;
  }
  opts.tile = parse_tile(args.option("tile"), &ok);
  if (!ok) {
    std::fprintf(stderr, "bppart: bad tile shape '%s'\n",
                 args.option("tile").c_str());
    return 2;
  }
  opts.num_threads = args.option_int("threads");

  char* t_end = nullptr;
  const std::string t_text = args.option("temperature");
  opts.temperature = std::strtod(t_text.c_str(), &t_end);
  if (t_end == t_text.c_str() || *t_end != '\0' ||
      !(opts.temperature > 0.0)) {
    std::fprintf(stderr, "bppart: --temperature must be a number > 0, "
                         "got '%s'\n", t_text.c_str());
    return 2;
  }

  auto model = args.flag("unit-weights") ? rna::ScoringModel::unit()
                                         : rna::ScoringModel::bpmax_default();
  model.set_min_hairpin(args.option_int("min-hairpin"));

  const std::string profile = args.option("profile");
  if (!profile.empty()) {
#if RRI_OBS_ENABLED
    obs::set_enabled(true);
#else
    std::fprintf(stderr,
                 "bppart: --profile requested but instrumentation was "
                 "compiled out (-DRRI_OBS=OFF); times will be empty\n");
#endif
  }
  const std::string trace_path = args.option("trace");
  if (!trace_path.empty()) {
#if RRI_OBS_ENABLED
    obs::set_enabled(true);
    trace::set_enabled(true);
    trace::start_hw();
#else
    std::fprintf(stderr,
                 "bppart: --trace requested but instrumentation was "
                 "compiled out (-DRRI_OBS=OFF); the trace will be empty\n");
#endif
  }

  try {
    harness::StopWatch run_watch;
    const auto s1 = load_sequence(args.positional()[0], args.flag("fasta"));
    const auto s2_fwd =
        load_sequence(args.positional()[1], args.flag("fasta"));
    const bool reverse = !args.flag("no-reverse");
    const rna::Sequence s2 = reverse ? s2_fwd.reversed() : s2_fwd;

    // Up-front capacity guard: the double-width table as
    // core::table_bytes prices it, as the serving layer prices lse jobs.
    char* mm_end = nullptr;
    const std::string max_mem_text = args.option("max-mem");
    const double max_mem_gib = std::strtod(max_mem_text.c_str(), &mm_end);
    if (mm_end == max_mem_text.c_str() || *mm_end != '\0' ||
        !(max_mem_gib > 0.0)) {
      std::fprintf(stderr, "bppart: --max-mem must be a positive GiB "
                           "count, got '%s'\n", max_mem_text.c_str());
      return 2;
    }
    const double need_gib =
        core::table_bytes(s1.size(), s2.size(),
                          semiring::Algebra::kLogSumExp) /
        (1024.0 * 1024.0 * 1024.0);
    if (need_gib > max_mem_gib) {
      std::fprintf(stderr,
                   "bppart: table would need ~%.1f GiB at 8 bytes/cell "
                   "(limit %.1f GiB; raise --max-mem)\n",
                   need_gib, max_mem_gib);
      return 2;
    }

    harness::StopWatch sw;
    const core::BppartResult result =
        core::bppart_solve(s1, s2, model, opts);
    const double secs = sw.seconds();

    const int top_k = std::max(0, args.option_int("probs"));
    const std::string probs_out = args.option("probs-out");
    std::vector<double> prob;
    if (top_k > 0 || !probs_out.empty()) {
      prob = core::bppart_pair_probabilities(result);
    }

    const int m = static_cast<int>(s1.size());
    const int n = static_cast<int>(s2.size());
    if (args.flag("csv")) {
      harness::ReportTable table(
          {"m", "n", "log_z", "temperature", "seconds", "variant"});
      char lz[40];
      std::snprintf(lz, sizeof(lz), "%.17g", result.log_z);
      table.add_row({std::to_string(s1.size()), std::to_string(s2.size()),
                     lz, harness::fmt_double(opts.temperature, 6),
                     harness::fmt_double(secs, 4),
                     core::bppart_variant_name(opts.variant)});
      table.print_csv(std::cout);
    } else {
      std::printf("log Z: %.17g   (M=%zu, N=%zu, T=%g, %s, %.3fs)\n",
                  result.log_z, s1.size(), s2.size(), opts.temperature,
                  core::bppart_variant_name(opts.variant), secs);
    }

    if (top_k > 0 && !prob.empty()) {
      const auto top =
          top_pairs(prob, m, n, static_cast<std::size_t>(top_k));
      harness::ReportTable table({"s1_pos", "s2_pos", "prob"});
      for (const RankedPair& rp : top) {
        // Report strand-2 positions in the caller's 5'->3' coordinates.
        const int b_out = reverse ? n - 1 - rp.b : rp.b;
        char p_text[32];
        std::snprintf(p_text, sizeof(p_text), "%.6f", rp.p);
        table.add_row({std::to_string(rp.a), std::to_string(b_out),
                       p_text});
      }
      if (args.flag("csv")) {
        table.print_csv(std::cout);
      } else {
        std::printf("top %zu inter-pair probabilities:\n", top.size());
        table.print(std::cout);
      }
    }

    if (!probs_out.empty() && !prob.empty()) {
      std::ofstream out(probs_out);
      if (!out) {
        std::fprintf(stderr, "bppart: cannot write %s\n",
                     probs_out.c_str());
        return 2;
      }
      // One JSONL row per strand-1 position; strand-2 columns in the
      // caller's 5'->3' orientation.
      char buffer[32];
      for (int a = 0; a < m; ++a) {
        out << "{\"s1_pos\":" << a << ",\"p\":[";
        for (int col = 0; col < n; ++col) {
          const int b = reverse ? n - 1 - col : col;
          const double p = prob[static_cast<std::size_t>(a) *
                                    static_cast<std::size_t>(n) +
                                static_cast<std::size_t>(b)];
          std::snprintf(buffer, sizeof(buffer), "%.9g", p);
          out << (col > 0 ? "," : "") << buffer;
        }
        out << "]}\n";
      }
    }

    if (!trace_path.empty()) {
      const trace::HwSummary hw = trace::read_hw();
      obs::set_counter("trace.hw_backend", hw.backend);
      if (hw.valid()) {
        obs::set_counter("hw.cycles", hw.cycles);
        obs::set_counter("hw.instructions", hw.instructions);
        obs::set_counter("hw.ipc", hw.ipc());
      }
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "bppart: cannot write %s\n",
                     trace_path.c_str());
        return 2;
      }
      trace::write_chrome_json(out);
      const trace::TraceStats ts = trace::stats();
      std::printf("trace: %s (%zu events, %zu dropped, hw: %s)\n",
                  trace_path.c_str(), ts.recorded, ts.dropped,
                  trace::hw_backend_name(hw.backend));
    }
    if (!profile.empty()) {
      const auto report =
          obs::capture_report("bppart --profile", run_watch.seconds());
      std::printf("\n");
      obs::print_phase_table(std::cout, report);
      if (profile != "-") {
        std::ofstream out(profile);
        if (!out) {
          std::fprintf(stderr, "bppart: cannot write %s\n",
                       profile.c_str());
          return 2;
        }
        obs::write_json(out, report);
        std::printf("perf report: %s\n", profile.c_str());
      }
    }
    return 0;
  } catch (const rna::ParseError& e) {
    std::fprintf(stderr, "bppart: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bppart: %s\n", e.what());
    return 2;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "bppart: %s\n", e.what());
    return 2;
  }
}
