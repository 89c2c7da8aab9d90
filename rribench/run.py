#!/usr/bin/env python3
"""The repository benchmark.

    python3 rribench/run.py --workload solve-pair --seed 1 --seconds 20 --trace 0

Builds the rribench binary (and the library it links) from source into
.bench_build/, times the workload's set-up in fresh processes, runs the
workload, checks every output against an independent reference, and
prints one JSON result line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
all tracing off; --trace 1 reports its per-layer metrics and writes the
traced pass's spans as Chrome trace-event JSON (rank them with
tools/trace_view). The line before the result is the full record: seed,
every metric and detail, and the host and build fingerprint. Records are
also appended to .bench_build/results.jsonl.

Two end-to-end numbers are in every record but not in BENCHMARK.json:
failed_ratio, because a gated metric must never be 0 (any failure fails
the run instead), and latency_tail_s (the highest of p50/p75/p90/p95/
p99/p99.9 with at least ten samples beyond it; p99 for daemon-journaled),
because on a shared VM it follows hypervisor steal (host_steal_share)
more closely than any bound a gate may use.

Exit status: 0 when every output was correct, 1 when any job failed or
returned a wrong result (the result line is still printed), 2 when the
benchmark could not build or run (no result line).
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "rribench"
RESULTS = ROOT / ".bench_build" / "results"
SETUP_SAMPLES = 31
DEADLINE_S = 170.0
ISA_FLAGS = ("sse2", "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512bw",
             "avx512vl")


class BenchError(RuntimeError):
    pass


def log(msg):
    print(f"rribench: {msg}", file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kwargs):
    proc = subprocess.run(cmd, timeout=timeout, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")
    return proc


def build(deadline):
    """Configure once, then build only the rribench binary and what it links."""
    cores = len(os.sched_getaffinity(0))
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator],
                    timeout=max(1.0, deadline - time.monotonic()),
                    stdout=sys.stderr)
    run_checked(["cmake", "--build", str(BUILD), "--target", "rribench",
                 "-j", str(cores)],
                timeout=max(1.0, deadline - time.monotonic()),
                stdout=sys.stderr)
    return BUILD / "rribench"


def loc_per_module():
    """Non-blank, non-comment-only lines per src/ module (the counter of
    bench/tab6_loc_stats.cpp); tests live outside src/."""
    counts = {}
    for module in sorted(p for p in (ROOT / "src").iterdir() if p.is_dir()):
        total = 0
        for f in module.rglob("*"):
            if f.suffix not in (".cpp", ".hpp", ".h", ".cc") or not f.is_file():
                continue
            for line in f.read_text(errors="replace").splitlines():
                s = line.strip()
                if s and not s.startswith(("//", "*", "/*")):
                    total += 1
        counts[module.name] = total
    return counts


def cmake_cache(key):
    text = (BUILD / "CMakeCache.txt").read_text(errors="replace")
    m = re.search(rf"^{re.escape(key)}:[A-Z]+=(.*)$", text, re.M)
    return m.group(1) if m else ""


def fingerprint(backend):
    cpu = "unknown"
    flags = set()
    with open("/proc/cpuinfo", errors="replace") as f:
        for line in f:
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu == "unknown":
                cpu = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = set(value.split())
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "cpu": cpu,
        "usable_cores": len(os.sched_getaffinity(0)),
        "isa": [f for f in ISA_FLAGS if f in flags],
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "omp_wait_policy": os.environ.get("OMP_WAIT_POLICY", "unset"),
        "simd_backend": backend,
        "loc": loc_per_module(),
    }


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(record, names):
    """The contract's last line, and whether every output was correct."""
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        raise BenchError(f"rribench did not report {', '.join(missing)}")
    correct = record["failed"] == 0 and record["attempted"] >= 1
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: record["metrics"][n] for n in names},
    }, correct


def cpu_ticks():
    """(steal, total) jiffies of the host's CPU line in /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def setup_samples(binary, args, work_dir, deadline):
    """Set-up time, each sample in a fresh process (a cold start)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = run_checked([str(binary), "--workload", args.workload,
                            "--seed", str(args.seed), "--setup-only",
                            "--work-dir", str(work_dir)],
                           timeout=max(1.0, deadline - time.monotonic()),
                           capture_output=True, text=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main():
    start = time.monotonic()
    deadline = start + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build(deadline)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RESULTS / tag
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)

    setup = [] if args.trace else setup_samples(binary, args, work_dir,
                                                deadline)
    record_path = work_dir / "record.json"
    steal0, total0 = cpu_ticks()
    proc = run_checked([str(binary), "--workload", args.workload,
                        "--seed", str(args.seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace),
                        "--work-dir", str(work_dir),
                        "--record", str(record_path)],
                       timeout=max(1.0, deadline - time.monotonic()),
                       capture_output=True, text=True)
    steal1, total1 = cpu_ticks()
    sys.stdout.write(proc.stdout)
    record = json.loads(record_path.read_text())
    # Time the hypervisor ran other guests on this machine's vCPUs: the
    # latency metrics rise with it, so it explains a noisy run.
    record["details"]["host_steal_share"] = (
        (steal1 - steal0) / max(1, total1 - total0))
    if not args.trace:
        record["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        record["details"]["setup_samples_s"] = setup
    record["fingerprint"] = fingerprint(record["backend"])
    line, correct = result_line(record, metric_names(args.trace))
    record["correct"] = correct
    record["failed_ratio"] = record["failed"] / max(1, record["attempted"])
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    with open(ROOT / ".bench_build" / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    if not args.trace:
        print(f"  setup_s (median of {len(setup)} cold starts) "
              f"{line['metrics']['setup_s']['value']:.6g} s")
    print(f"failed_ratio {record['failed_ratio']:.6g} ({record['failed']} of "
          f"{record['attempted']} jobs refused, failed or wrong)")
    print("record: " + json.dumps(record))
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        sys.exit(2)
