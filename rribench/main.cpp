/// rribench: the repository benchmark binary. Runs one workload for a
/// measured window and writes one JSON record of its metrics; run.py
/// builds this binary, times set-up in fresh processes, stamps the host
/// and build fingerprint and prints the result line.
///
///   rribench --workload solve-pair --seed 1 --seconds 20 --trace 0
///            --work-dir DIR --record DIR/record.json
///   rribench --workload batch-screen --setup-only --work-dir DIR
///
/// --trace 0 measures the end-to-end metrics with all tracing off.
/// --trace 1 runs the workload twice (untraced, then traced: the
/// benchmark's own spans plus the library's rri::trace / rri::obs
/// instrumentation), short untraced passes of the other workloads for
/// the per-layer metrics only they yield, and the layer probes; it
/// reports the per-layer metrics and writes the spans as Chrome
/// trace-event JSON.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "rri/core/simd/maxplus_simd.hpp"
#include "rri/obs/json.hpp"
#include "rri/obs/obs.hpp"
#include "rri/trace/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace rribench;
using rri::obs::JsonValue;

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

struct Args {
  Options options;
  bool setup_only = false;
  std::string record;
};

Args parse(int argc, char** argv) {
  Args a;
  a.options.cores = usable_cores();
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + key);
      }
      return argv[++i];
    };
    if (key == "--workload") {
      a.options.workload = value();
    } else if (key == "--seed") {
      a.options.seed = std::stoull(value());
    } else if (key == "--seconds") {
      a.options.seconds = std::stod(value());
    } else if (key == "--trace") {
      a.options.trace = value() == "1";
    } else if (key == "--work-dir") {
      a.options.work_dir = value();
    } else if (key == "--record") {
      a.record = value();
    } else if (key == "--tiny") {
      a.options.tiny = true;
    } else if (key == "--corrupt-expected") {
      a.options.corrupt_expected = std::stoi(value());
    } else if (key == "--generator-stall-s") {
      a.options.generator_stall_s = std::stod(value());
    } else if (key == "--setup-only") {
      a.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.options.workload.empty() || a.options.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  if (!a.setup_only && a.record.empty()) {
    throw std::invalid_argument("--record is required");
  }
  if (!(a.options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return a;
}

double jobs_per_s(const RunResult& r) {
  return r.window_s > 0 ? static_cast<double>(r.completed) / r.window_s : 0.0;
}

JsonValue metrics_json(const Metrics& metrics) {
  JsonValue obj = JsonValue::object();
  for (const Metric& m : metrics) {
    JsonValue v = JsonValue::object();
    v.set("value", JsonValue::number(m.value));
    v.set("unit", JsonValue::string(m.unit));
    obj.set(m.name, std::move(v));
  }
  return obj;
}

/// End-to-end metrics of one untraced pass (set-up is timed by run.py in
/// fresh processes and added there).
Metrics end_to_end(const RunResult& r, Metrics* details) {
  Metrics m;
  const Tail tail = latency_tail(r.latencies);
  put(m, "jobs_per_s", jobs_per_s(r), "jobs/s");
  put(m, "latency_p50_s", median(r.latencies), "s");
  put(m, "latency_tail_s", tail.value, "s");
  put(m, "peak_rss_mb", r.peak_rss_mb, "MiB");
  put(m, "cpu_s_per_job",
      r.cpu_s / static_cast<double>(std::max<std::size_t>(1, r.completed)),
      "s");
  put(*details, "latency_tail_percentile", tail.percentile, "percentile");
  put(*details, "latency_tail_beyond", static_cast<double>(tail.beyond),
      "count");
  put(*details, "latency_samples", static_cast<double>(tail.samples),
      "count");
  put(*details, "window_s", r.window_s, "s");
  return m;
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Merge the metrics `from` has and `into` lacks.
void merge_missing(Metrics& into, const Metrics& from) {
  for (const Metric& m : from) {
    if (find(into, m.name) == nullptr) {
      into.push_back(m);
    }
  }
}

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void add(const RunResult& r) {
    attempted += r.attempted;
    failed += r.failed();
  }
};

/// The traced run: per-layer metrics, the trace files and the summary.
Metrics traced_run(const Options& opt, Workload& w, Totals& totals,
                   Metrics& details) {
  const RunResult base = w.run(opt.seconds);
  totals.add(base);

  tracer().clear();
  tracer().set_on(true);
  rri::trace::reset();
  rri::trace::set_enabled(true);
  rri::obs::set_enabled(true);
  const RunResult traced = w.run(opt.seconds);
  rri::obs::set_enabled(false);
  rri::trace::set_enabled(false);
  tracer().set_on(false);
  totals.add(traced);

  const std::string stem = opt.work_dir + "/" + opt.workload;
  const std::vector<Span> spans = tracer().spans();
  write_chrome_trace(spans, stem + ".bench-trace.json");
  {
    std::ofstream out(stem + ".library-trace.json");
    rri::trace::write_chrome_json(out);
  }

  Metrics layer = traced.layer;
  merge_missing(details, traced.details);
  // The per-layer metrics the other workloads yield, from short passes
  // (solve-pair yields none: its layer is covered by core_probes).
  for (const std::string& other : workload_names()) {
    if (other == opt.workload || other == "solve-pair") {
      continue;
    }
    Options o = opt;
    o.workload = other;
    o.seconds = opt.tiny ? 0.5 : 3.0;
    const auto v = make_workload(other, o);
    v->prepare();
    const RunResult r = v->run(o.seconds);
    totals.add(r);
    merge_missing(layer, r.layer);
  }
  merge_missing(layer, core_probes(opt));
  merge_missing(layer, serve_probes(opt, daemon_history(opt, opt.seconds)));

  // How much slower the traced pass ran. The open loop's throughput is
  // its arrival rate, so daemon-journaled compares median latency.
  const double overhead =
      opt.workload == "daemon-journaled"
          ? median(traced.latencies) / median(base.latencies) - 1.0
          : jobs_per_s(base) / jobs_per_s(traced) - 1.0;
  put(layer, "bench.trace_overhead", overhead, "ratio");

  const TraceSummary summary = summarize(spans);
  double wall = 0.0;
  for (const TraceSummary::Request& q : summary.requests) {
    wall += q.total_s;
  }
  std::printf("trace: %s.bench-trace.json (%zu spans; rank them with "
              "tools/trace_view), library spans in %s.library-trace.json\n",
              stem.c_str(), spans.size(), stem.c_str());
  std::printf("self time by layer (share of request time):\n");
  for (const TraceSummary::Layer& l : summary.layers) {
    std::printf("  %-8s %10.4f s  %5.1f%%  (%zu spans)\n", l.name.c_str(),
                l.self_s, wall > 0 ? 100.0 * l.self_s / wall : 0.0, l.spans);
    put(details, "self_s." + l.name, l.self_s, "s");
  }
  std::vector<double> remainders;
  for (const TraceSummary::Request& q : summary.requests) {
    remainders.push_back(q.remainder_s);
  }
  std::printf("uncovered remainder per request (request time no child span "
              "covers):\n");
  if (summary.requests.size() <= 40) {
    for (const TraceSummary::Request& q : summary.requests) {
      std::printf("  request %-6llu total %.6f s  remainder %.6f s\n",
                  static_cast<unsigned long long>(q.request), q.total_s,
                  q.remainder_s);
    }
  } else {
    std::printf("  %zu requests (each in the trace as bench.request "
                "args.self_us): p50 %.6f s  p99 %.6f s  max %.6f s\n",
                summary.requests.size(), quantile(remainders, 0.5),
                quantile(remainders, 0.99), quantile(remainders, 1.0));
  }
  put(details, "remainder_p50_s", quantile(remainders, 0.5), "s");
  put(details, "remainder_p99_s", quantile(remainders, 0.99), "s");
  std::printf("bench.trace_overhead %.4f\n", overhead);
  return layer;
}

int run(const Args& a) {
  const Options& opt = a.options;
  std::filesystem::create_directories(opt.work_dir);
  const auto w = make_workload(opt.workload, opt);
  if (a.setup_only) {
    std::printf("%.9f\n", w->setup_once());
    return 0;
  }
  w->prepare();

  Totals totals;
  Metrics details;
  Metrics metrics;
  if (opt.trace) {
    metrics = traced_run(opt, *w, totals, details);
    print_metrics("per-layer metrics:", metrics);
  } else {
    const RunResult r = w->run(opt.seconds);
    totals.add(r);
    metrics = end_to_end(r, &details);
    merge_missing(details, r.details);
    print_metrics("end-to-end metrics (set-up is added by run.py):", metrics);
  }
  print_metrics("details:", details);

  JsonValue record = JsonValue::object();
  record.set("workload", JsonValue::string(opt.workload));
  record.set("seed", JsonValue::number(static_cast<double>(opt.seed)));
  record.set("seconds", JsonValue::number(opt.seconds));
  record.set("trace", JsonValue::number(opt.trace ? 1 : 0));
  record.set("tiny", JsonValue::boolean(opt.tiny));
  record.set("cores", JsonValue::number(opt.cores));
  record.set("backend", JsonValue::string(rri::core::simd::backend_name(
                            rri::core::simd::active_backend())));
  record.set("attempted",
             JsonValue::number(static_cast<double>(totals.attempted)));
  record.set("failed", JsonValue::number(static_cast<double>(totals.failed)));
  record.set("metrics", metrics_json(metrics));
  record.set("details", metrics_json(details));
  std::ofstream out(a.record);
  record.write(out);
  out << "\n";
  if (!out) {
    throw std::runtime_error("cannot write " + a.record);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rribench: %s\n", e.what());
    return 2;
  }
}
