#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the library).

    python3 rribench/selftest.py

Builds the rribench binary like run.py and checks, at tiny sizes:
  * every workload completes with every output verified, untraced and
    traced, and a traced run reports every per-layer metric of
    BENCHMARK.json and writes a trace tools/trace_view can rank;
  * a deliberately wrong expected score is counted as failed, and
    run.py's result line then says correct: false;
  * an open-loop generator that falls behind shows in
    bench.generator_late_p99_s.
Exits 0 when every check passes.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in
             json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
WORK = run.ROOT / ".bench_build" / "selftest"
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run_binary(binary, workload, trace, *extra, seconds=0.5):
    work = WORK / f"{workload}-{trace}-{len(extra)}"
    record = work / "record.json"
    subprocess.run([str(binary), "--workload", workload, "--seed", "7",
                    "--seconds", str(seconds), "--trace", str(trace), "--tiny",
                    "--work-dir", str(work), "--record", str(record), *extra],
                   check=True, stdout=subprocess.DEVNULL, timeout=170)
    return json.loads(record.read_text()), work


def main():
    binary = run.build(time.monotonic() + 900)
    end_to_end = run.metric_names(0)
    per_layer = run.metric_names(1)
    for w in WORKLOADS:
        rec, _ = run_binary(binary, w, 0)
        check(rec["attempted"] >= 1 and rec["failed"] == 0,
              f"{w}: {rec['attempted']} jobs, all verified")
        reported = [n for n in end_to_end if n != "setup_s"] + ["latency_tail_s"]
        check(all(n in rec["metrics"] for n in reported),
              f"{w}: every end-to-end metric and latency_tail_s reported")
        rec, work = run_binary(binary, w, 1)
        check(rec["failed"] == 0 and all(n in rec["metrics"] for n in per_layer),
              f"{w}: traced run reports every per-layer metric")
        trace = work / f"{w}.bench-trace.json"
        events = json.loads(trace.read_text())["traceEvents"]
        check(any(e.get("name") == "bench.request" for e in events),
              f"{w}: trace holds bench.request spans")
        if w == WORKLOADS[0]:
            subprocess.run(["cmake", "--build", str(run.BUILD), "--target",
                            "trace_view"], check=True, stdout=subprocess.DEVNULL)
            viewer = subprocess.run(
                [str(run.BUILD / "librri" / "tools" / "trace_view"), str(trace)],
                capture_output=True, text=True)
            check(viewer.returncode == 0 and "bench.request" in viewer.stdout,
                  "tools/trace_view ranks the benchmark's spans")

        rec, _ = run_binary(binary, w, 0, "--corrupt-expected", "1")
        check(rec["failed"] >= 1, f"{w}: a wrong expected score counts as failed")
        line, correct = run.result_line(
            dict(rec, metrics=dict(rec["metrics"], setup_s={"value": 1e-3,
                                                             "unit": "s"})),
            end_to_end)
        check(not correct and line["correct"] is False and line["failed"] >= 1,
              f"{w}: the result line then reads correct: false")

    steady, _ = run_binary(binary, "daemon-journaled", 1)
    stalled, _ = run_binary(binary, "daemon-journaled", 1, "--generator-stall-s",
                        "0.05")
    late = "bench.generator_late_p99_s"
    a = steady["metrics"][late]["value"]
    b = stalled["metrics"][late]["value"]
    check(b > 0.1 and b > 10 * a,
          f"a stalled generator shows in {late} ({a:.4f} s -> {b:.4f} s)")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
