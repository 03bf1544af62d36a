#!/bin/sh
# bench_sim.sh — run the simulator hot-loop benchmarks and emit
# BENCH_sim.json, the machine-readable perf baseline for the stepping
# trajectory (System.Step across step kinds, the greedy adversary's
# per-decision lookahead, a whole canonical run, the adversary's full
# quick-config schedule search cold and through a warm result store, the
# trace-capture tax on one executed job, off vs on, building one
# algorithm factory, which a fan-out does once per (algo, n) it executes,
# and the proof pipeline's construction and decoding steps alone, on
# yang-anderson: BenchmarkConstruct at n = 4…32 and BenchmarkDecode at
# n = 8…32, the encoding built before the timer starts).
#
# Usage: scripts/bench_sim.sh [output.json]
#
# Same JSON row shape as bench_store.sh: one object per benchmark,
#   {"name":..., "pkg":..., "iterations":N, "ns_per_op":X,
#    "bytes_per_op":B, "allocs_per_op":A}
# wrapped in {"go":version, "baseline":[...], "benchmarks":[...]}. The
# "baseline" block is the pre-flattening measurement (PR 6) kept for
# comparison: when the output file already has one, it is carried over
# verbatim, so regenerating refreshes only the current rows. No timestamps
# are embedded, so reruns on the same box and code are stable modulo noise.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_sim.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

baseline=""
if [ -f "$out" ]; then
  baseline="$(awk '/^"baseline":\[/{f=1;next} /^\],/{f=0} f' "$out")"
fi

go test -run '^$' -bench 'BenchmarkSystemStep$|BenchmarkSystemStepSpin$|BenchmarkGreedyNext$|BenchmarkCanonicalRun$|BenchmarkSearchWorst$|BenchmarkSearchWorstWarm$|BenchmarkCaptureOverhead$|BenchmarkNewFactory$|BenchmarkConstruct$|BenchmarkDecode$' -benchmem ./internal/machine ./internal/adversary ./internal/runner . >"$tmp"

go_version="$(go env GOVERSION)"
awk -v go_version="$go_version" -v baseline="$baseline" '
  /^pkg:/ { pkg = $2 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")    ns = $(i-1)
      if ($i == "B/op")     bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    row = sprintf("  {\"name\":\"%s\",\"pkg\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}",
                  name, pkg, $2, ns, bytes, allocs)
    rows = rows (rows == "" ? "" : ",\n") row
  }
  END {
    printf "{\"go\":\"%s\",\n", go_version
    if (baseline != "")
      printf "\"baseline\":[\n%s\n],\n", baseline
    printf "\"benchmarks\":[\n%s\n]}\n", rows
  }
' "$tmp" >"$out"
echo "wrote $out:" >&2
cat "$out" >&2
