#!/usr/bin/env sh
# Run the bench bundle: the fig13 double max-plus sweep (one run per
# SIMD backend), a small batch-serving sweep, a daemon sweep that
# drives rri_served through rri_client at 1/2/4 workers, a two-tenant
# contention sweep (an abusive tenant flooding the queue next to a
# well-behaved one, quotas off vs on), a bppart partition-function
# sweep (per-variant wall time in the logsumexp algebra), and a
# telemetry scrape-overhead sweep (the same daemon workload bare vs
# scraped once per second with SLO evaluation on; warn-only 2% budget)
# — bundled into one JSON document (schema rri-bench-bundle/1,
# documented in docs/observability.md). CI uploads the bundle as an
# artifact; locally it is a one-command snapshot you can perf_diff
# against a later checkout.
#
#   ci/run_bench.sh [build-dir]   (default: build)
#
# Knobs:
#   RRI_BENCH_OUT    bundle path (default: <repo>/BENCH_pr10.json)
#   RRI_BENCH_SCALE / RRI_BENCH_REPS shrink or grow the fig13 sweep
#   exactly as for any bench binary.

set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${RRI_BENCH_OUT:-${REPO_ROOT}/BENCH_pr10.json}"
WORK="$(mktemp -d)"
DAEMON_PID=""
SCRAPER_PID=""

# One cleanup path for every exit: kill a still-running scraper and
# daemon first (otherwise the port and the work dir linger), then drop
# the work dir. Quote-safe — ${WORK} is expanded at cleanup time, not
# trap-set time.
cleanup() {
  if [ -n "${SCRAPER_PID}" ] && kill -0 "${SCRAPER_PID}" 2>/dev/null; then
    kill "${SCRAPER_PID}" 2>/dev/null || true
    wait "${SCRAPER_PID}" 2>/dev/null || true
  fi
  if [ -n "${DAEMON_PID}" ] && kill -0 "${DAEMON_PID}" 2>/dev/null; then
    kill "${DAEMON_PID}" 2>/dev/null || true
    wait "${DAEMON_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT INT TERM HUP

if ! command -v jq > /dev/null 2>&1; then
  echo "run_bench: jq is required to extract daemon percentiles from" \
       "the obs reports — install it (apt-get install jq) and re-run" >&2
  exit 2
fi

FIG13="${BUILD_DIR}/bench/fig13_dmp_perf"
BATCH="${BUILD_DIR}/tools/bpmax_batch"
DAEMON="${BUILD_DIR}/tools/rri_served"
CLIENT="${BUILD_DIR}/tools/rri_client"
BPPART="${BUILD_DIR}/tools/bppart"
for bin in "${FIG13}" "${BATCH}" "${DAEMON}" "${CLIENT}" "${BPPART}"; do
  if [ ! -x "${bin}" ]; then
    echo "run_bench: missing ${bin} (build the fig13_dmp_perf," \
         "bpmax_batch, rri_served, rri_client and bppart targets" \
         "first)" >&2
    exit 2
  fi
done

# 1. fig13: RRI_BENCH_JSON=<dir> makes the bench drop its
#    BENCH_<slug>.json perf report there.
echo "run_bench: fig13 double max-plus sweep..."
RRI_BENCH_JSON="${WORK}" "${FIG13}" > "${WORK}/fig13.out"
FIG13_JSON="$(ls "${WORK}"/BENCH_*.json)"
# The dispatch invariant line (simd_auto_over_scalar_max: 1.012 (auto ->
# avx512)) becomes a {"backend":..., "auto_over_scalar_max":...} row in
# the bundle: the backend auto resolved to and its worst row's
# best-variant time over scalar's.
SIMD_ROWS="$(sed -nE \
  's/^simd_auto_over_scalar_max: ([0-9.]+) \(auto -> ([a-z0-9]+)\)$/{"backend":"\2","auto_over_scalar_max":\1}/p' \
  "${WORK}/fig13.out" | paste -sd, -)"

# 2. batch-serve: a duplicate-heavy manifest exercises scheduling, the
#    result cache, and the serve latency histograms end to end.
echo "run_bench: batch-serve sweep..."
cat > "${WORK}/bench_manifest.jsonl" <<'EOF'
{"id":"a","s1":"GGGAAACCCAUGCGGGAAACCC","s2":"UUGCCAAGGUUGCC"}
{"id":"b","s1":"GGGAAACCCAUGCGGGAAACCC","s2":"UUGCCAAGGUUGCC"}
{"id":"c","s1":"GCAUGCAUGCAUGCAUGCAUGCAU","s2":"AUGCAUGCAUGC"}
{"id":"d","s1":"GGGGAAAACCCCUUUUGGGGAAAA","s2":"UUUUCCCCAAAAGG"}
{"id":"e","s1":"GCAUGCAUGCAUGCAUGCAUGCAU","s2":"AUGCAUGCAUGC"}
{"id":"f","s1":"AAGGCCUUAAGGCCUUAAGGCCUU","s2":"GGCCAAUUGGCC"}
EOF
"${BATCH}" --manifest "${WORK}/bench_manifest.jsonl" --jobs 2 \
  --profile="${WORK}/batch_report.json" --out "${WORK}/batch_results.jsonl"

# 3. daemon sweep: a fresh rri_served per worker count, driven over the
#    socket by rri_client. Distinct pairs (no cache hits) so queue-wait
#    reflects real kernel runs; jobs/sec comes from the client's summary
#    line, the p99 of serve.queue_wait_s from the daemon's obs report.
echo "run_bench: daemon sweep (1/2/4 workers)..."
awk 'BEGIN {
  b = "ACGUGGGAAACCCAUGCAAGGCCUU";
  for (i = 0; i < 16; ++i)
    printf "{\"id\":\"d%02d\",\"s1\":\"%sGGGAAACCC%s\",\"s2\":\"UUGCCAAGG\"}\n",
           i, substr(b, 1, 9 + i % 8), substr(b, 1 + i, 8);
}' > "${WORK}/daemon_manifest.jsonl"
DAEMON_ROWS=""
for W in 1 2 4; do
  rm -f "${WORK}/port.txt"
  RRI_OBS=1 RRI_OBS_JSON="${WORK}/daemon_w${W}.json" \
    "${DAEMON}" --port 0 --port-file "${WORK}/port.txt" --jobs "${W}" \
    > "${WORK}/served_w${W}.log" 2>&1 &
  DAEMON_PID=$!
  "${CLIENT}" --port-file "${WORK}/port.txt" submit \
    --manifest "${WORK}/daemon_manifest.jsonl" \
    --out "${WORK}/daemon_results_w${W}.jsonl" \
    2> "${WORK}/client_w${W}.log"
  "${CLIENT}" --port-file "${WORK}/port.txt" drain > /dev/null
  wait "${DAEMON_PID}"
  DAEMON_PID=""
  jobs_per_sec="$(sed -nE 's|.*\(([0-9.]+) jobs/sec.*|\1|p' \
    "${WORK}/client_w${W}.log")"
  p99="$(jq '[.histograms[] | select(.name == "serve.queue_wait_s")][0]
             .p99_seconds // 0' "${WORK}/daemon_w${W}.json")"
  echo "run_bench:   workers=${W}: ${jobs_per_sec} jobs/sec," \
       "queue-wait p99 ${p99}s"
  row="{\"workers\":${W},\"jobs_per_sec\":${jobs_per_sec},"
  row="${row}\"queue_wait_p99_s\":${p99}}"
  DAEMON_ROWS="${DAEMON_ROWS}${DAEMON_ROWS:+,}${row}"
done

# 4. two-tenant contention: tenant "abuser" floods 16 slow jobs into
#    the queue, then tenant "polite" submits 4 small ones behind them.
#    Run once with quotas off and once with the abuser capped at 2
#    concurrent jobs; the polite tenant's queue-wait p99 (from its
#    per-tenant serve.queue_wait_s.tenant.polite histogram) is the
#    number quotas exist to protect.
echo "run_bench: two-tenant contention sweep (quotas off/on)..."
awk 'BEGIN {
  b = "ACGUGGGAAACCCAUGCAAGGCCUU";
  for (i = 0; i < 16; ++i)
    printf "{\"id\":\"a%02d\",\"s1\":\"%sGGGAAACCCAUGCGGGAAACCC\",\"s2\":\"UUGCCAAGGUUGCC\"}\n",
           i, substr(b, 1, 9 + i % 8);
}' > "${WORK}/abuser_manifest.jsonl"
awk 'BEGIN {
  for (i = 0; i < 4; ++i)
    printf "{\"id\":\"p%02d\",\"s1\":\"GGGAAACCCAUG%s\",\"s2\":\"UUGCCAAGG\"}\n",
           i, substr("CAGU", 1 + i, 1);
}' > "${WORK}/polite_manifest.jsonl"
cat > "${WORK}/tenants.jsonl" <<'EOF'
{"tenant":"abuser","max_concurrent":2}
EOF
TENANT_ROWS=""
for MODE in off on; do
  rm -f "${WORK}/port.txt"
  if [ "${MODE}" = "on" ]; then
    QUOTA_ARGS="--tenant-config ${WORK}/tenants.jsonl"
  else
    QUOTA_ARGS=""
  fi
  # shellcheck disable=SC2086 -- QUOTA_ARGS is deliberately word-split
  RRI_OBS=1 RRI_OBS_JSON="${WORK}/tenant_${MODE}.json" \
    "${DAEMON}" --port 0 --port-file "${WORK}/port.txt" --jobs 2 \
    ${QUOTA_ARGS} > "${WORK}/served_tenant_${MODE}.log" 2>&1 &
  DAEMON_PID=$!
  # The abuser floods and walks away (--no-wait); with quotas on its
  # over-cap submits are refused after the retry budget (exit 4 — not
  # an error here, it is the mechanism under test).
  "${CLIENT}" --port-file "${WORK}/port.txt" --tenant abuser \
    --retries 1 submit --manifest "${WORK}/abuser_manifest.jsonl" \
    --no-wait 2> "${WORK}/abuser_${MODE}.log" || true
  # The polite tenant submits behind the flood and waits for results.
  "${CLIENT}" --port-file "${WORK}/port.txt" --tenant polite \
    submit --manifest "${WORK}/polite_manifest.jsonl" \
    --out "${WORK}/polite_${MODE}.jsonl" 2> "${WORK}/polite_${MODE}.log"
  "${CLIENT}" --port-file "${WORK}/port.txt" drain > /dev/null
  wait "${DAEMON_PID}"
  DAEMON_PID=""
  polite_p99="$(jq '[.histograms[]
      | select(.name == "serve.queue_wait_s.tenant.polite")][0]
      .p99_seconds // 0' "${WORK}/tenant_${MODE}.json")"
  echo "run_bench:   quotas ${MODE}: polite queue-wait p99 ${polite_p99}s"
  row="{\"quotas\":\"${MODE}\",\"polite_queue_wait_p99_s\":${polite_p99}}"
  TENANT_ROWS="${TENANT_ROWS}${TENANT_ROWS:+,}${row}"
  if [ "${MODE}" = "off" ]; then
    P99_OFF="${polite_p99}"
  else
    awk -v off="${P99_OFF}" -v on="${polite_p99}" 'BEGIN {
      if (on < off)
        printf "run_bench:   quotas cut the polite p99 %.3fs -> %.3fs\n",
               off, on;
      else
        printf "run_bench: WARNING: polite p99 did not improve " \
               "(%.3fs off vs %.3fs on)\n", off, on;
    }'
  fi
done

# 5. bppart sweep: the partition-function workload in the logsumexp
#    algebra, one run per fill variant on the same pair. The CSV row the
#    CLI prints carries the wall time; the log_z column doubles as a
#    cross-variant consistency check (the engine pins the reduction
#    order, so every variant must print identical digits).
echo "run_bench: bppart partition-function sweep..."
BP_S1="$(awk 'BEGIN { for (i = 0; i < 4; ++i) printf "GGGAAACCCAUGC" }')"
BP_S2="$(awk 'BEGIN { for (i = 0; i < 3; ++i) printf "UUGCCAAGGUUGCC" }')"
BPPART_ROWS=""
BP_LOG_Z=""
for V in serial row_parallel tiled; do
  "${BPPART}" --csv --variant "${V}" "${BP_S1}" "${BP_S2}" \
    > "${WORK}/bppart_${V}.csv"
  row="$(awk -F, 'NR == 2 {
    printf "{\"variant\":\"%s\",\"m\":%s,\"n\":%s,\"log_z\":%s,\"seconds\":%s}",
           $6, $1, $2, $3, $5
  }' "${WORK}/bppart_${V}.csv")"
  log_z="$(awk -F, 'NR == 2 { print $3 }' "${WORK}/bppart_${V}.csv")"
  echo "run_bench:   variant=${V}: log_z=${log_z}"
  if [ -z "${BP_LOG_Z}" ]; then
    BP_LOG_Z="${log_z}"
  elif [ "${log_z}" != "${BP_LOG_Z}" ]; then
    echo "run_bench: ERROR: bppart variant ${V} disagrees" \
         "(${log_z} vs ${BP_LOG_Z}) — the engine promises bit-identical" \
         "fills across variants" >&2
    exit 1
  fi
  BPPART_ROWS="${BPPART_ROWS}${BPPART_ROWS:+,}${row}"
done

# 6. telemetry scrape overhead: the daemon-sweep manifest twice at 2
#    workers — once bare, once with the live telemetry plane fully on
#    (HTTP /metrics listener, SLO evaluation every 0.25 s, and a
#    background scraper pulling the exposition once per second).
#    Throughput comes from the client's jobs/sec summary line both
#    times; the scraped run costing more than 2% is worth a warning
#    (warn-only: shared runners are too noisy to gate on).
echo "run_bench: telemetry scrape-overhead sweep..."
cat > "${WORK}/bench_slo.jsonl" <<'EOF'
{"name":"queue-p99","kind":"latency","histogram":"serve.queue_wait_s","quantile":0.99,"max_seconds":30.0,"fast_window_s":60,"slow_window_s":300}
EOF
SCRAPE_ROW=""
for MODE in bare scraped; do
  rm -f "${WORK}/port.txt" "${WORK}/mport.txt"
  if [ "${MODE}" = "scraped" ]; then
    TELEMETRY_ARGS="--metrics-port 0 --metrics-port-file ${WORK}/mport.txt"
    TELEMETRY_ARGS="${TELEMETRY_ARGS} --slo-config ${WORK}/bench_slo.jsonl"
    TELEMETRY_ARGS="${TELEMETRY_ARGS} --telemetry-interval 0.25"
  else
    TELEMETRY_ARGS=""
  fi
  # shellcheck disable=SC2086 -- TELEMETRY_ARGS is deliberately word-split
  "${DAEMON}" --port 0 --port-file "${WORK}/port.txt" --jobs 2 \
    ${TELEMETRY_ARGS} > "${WORK}/served_${MODE}.log" 2>&1 &
  DAEMON_PID=$!
  if [ "${MODE}" = "scraped" ]; then
    # Scrape the protocol-verb exposition once per second in the
    # background — same encoder as GET /metrics, no curl dependency.
    (
      while :; do
        "${CLIENT}" --port-file "${WORK}/port.txt" metrics \
          > /dev/null 2>&1 || true
        sleep 1
      done
    ) &
    SCRAPER_PID=$!
  fi
  "${CLIENT}" --port-file "${WORK}/port.txt" submit \
    --manifest "${WORK}/daemon_manifest.jsonl" \
    --out "${WORK}/scrape_${MODE}.jsonl" 2> "${WORK}/scrape_${MODE}.log"
  if [ -n "${SCRAPER_PID}" ]; then
    kill "${SCRAPER_PID}" 2>/dev/null || true
    wait "${SCRAPER_PID}" 2>/dev/null || true
    SCRAPER_PID=""
  fi
  "${CLIENT}" --port-file "${WORK}/port.txt" drain > /dev/null
  wait "${DAEMON_PID}"
  DAEMON_PID=""
  jps="$(sed -nE 's|.*\(([0-9.]+) jobs/sec.*|\1|p' \
    "${WORK}/scrape_${MODE}.log")"
  echo "run_bench:   ${MODE}: ${jps} jobs/sec"
  if [ "${MODE}" = "bare" ]; then
    JPS_BARE="${jps}"
  else
    SCRAPE_ROW="$(awk -v bare="${JPS_BARE}" -v scraped="${jps}" 'BEGIN {
      pct = bare > 0 ? (bare - scraped) / bare * 100 : 0;
      printf "{\"bare_jobs_per_sec\":%s,\"scraped_jobs_per_sec\":%s,", \
             bare, scraped;
      printf "\"overhead_pct\":%.2f}", pct;
      if (pct >= 2)
        printf "run_bench: WARNING: telemetry scrape overhead " \
               "%.1f%% above the 2%% budget\n", pct > "/dev/stderr";
      else
        printf "run_bench:   scrape overhead %.1f%% (budget 2%%)\n",
               pct > "/dev/stderr";
    }')"
  fi
done

# 7. Bundle: fig13 and batch_serve are complete rri-obs-report/1
#    documents (perf_diff reads them); simd_speedups, daemon,
#    tenant_contention, bppart and telemetry_overhead are sweep tables.
echo "run_bench: writing ${OUT}"
{
  printf '{"schema":"rri-bench-bundle/1",\n"fig13":'
  cat "${FIG13_JSON}"
  printf ',\n"simd_speedups":[%s],\n' "${SIMD_ROWS}"
  printf '"batch_serve":'
  cat "${WORK}/batch_report.json"
  printf ',\n"daemon":[%s],\n' "${DAEMON_ROWS}"
  printf '"tenant_contention":[%s],\n' "${TENANT_ROWS}"
  printf '"bppart":[%s],\n' "${BPPART_ROWS}"
  printf '"telemetry_overhead":%s}\n' "${SCRAPE_ROW:-null}"
} > "${OUT}"
echo "run_bench: done ($(wc -c < "${OUT}") bytes)"
