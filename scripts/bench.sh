#!/bin/sh
# bench.sh — run the micro-benchmarks and write the two ledgers:
#
#   BENCH_sim.json    the simulator and the proof pipeline: System.Step
#                     across step kinds, the greedy adversary's
#                     per-decision lookahead, a whole canonical run, the
#                     adversary's full quick-config schedule search cold
#                     and through a warm result store, the trace-capture
#                     tax on one executed job (off vs on), building one
#                     algorithm factory, the proof pipeline on
#                     yang-anderson (Construct, Decode, an Encode+Decode
#                     round trip, and the full verified Prove), and the
#                     whole quick experiment suite on one fresh engine per
#                     suite, at one worker and at GOMAXPROCS
#   BENCH_store.json  the result store: the local LRU+NDJSON hot path, and
#                     the remote batch and point paths over loopback
#
# Usage: scripts/bench.sh [sim.json [store.json]]
#
# Every row has one shape, one object per benchmark:
#   {"name":..., "pkg":..., "iterations":N, "ns_per_op":X,
#    "bytes_per_op":B, "allocs_per_op":A}
# wrapped in {"go":version, "benchmarks":[...]}. BENCH_sim.json also keeps
# a "baseline" block, the measurement from before the step loop was
# flattened, kept for comparison: when an output file already has one, it
# is carried over verbatim, so regenerating refreshes only the current
# rows. No timestamps are embedded.
#
# Each group of benchmarks runs a fixed iteration count (-benchtime Nx,
# the N in each bench line below, sized to about a second per row here),
# not for a fixed time: a row with one-time set-up allocations spreads
# them over the same N on every host and every run. Each group also runs
# three times (-count 3), and a row keeps the least allocs/op and B/op of
# its three runs and their median ns/op: a sync.Pool that comes up empty
# after a garbage collection costs a run a few extra allocations (the
# program builder's pooled buffers regrow), which moves single runs of
# NewFactory/filter/32, SearchWorst and RemoteMGet by a few allocs/op.
# Wall times still move with the host.
set -eu
cd "$(dirname "$0")/.."

sim_out="${1:-BENCH_sim.json}"
store_out="${2:-BENCH_store.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# bench OUT PATTERN N PKG runs the benchmarks PATTERN selects in PKG three
# times for exactly N iterations each, appending go test's output to OUT.
bench() {
  go test -run '^$' -bench "$2" -benchtime "$3x" -count 3 -benchmem "$4" >>"$1"
}

bench "$tmp/sim" 'BenchmarkSystemStep$|BenchmarkSystemStepSpin$' 2000000 ./internal/machine
bench "$tmp/sim" 'BenchmarkGreedyNext$' 500000 ./internal/machine
bench "$tmp/sim" 'BenchmarkCanonicalRun$' 500 ./internal/machine
bench "$tmp/sim" 'BenchmarkSearchWorst$|BenchmarkSearchWorstWarm$' 500 ./internal/adversary
bench "$tmp/sim" 'BenchmarkCaptureOverhead$' 2000 ./internal/runner
bench "$tmp/sim" 'BenchmarkNewFactory$/^filter$' 20 ./internal/runner
bench "$tmp/sim" 'BenchmarkNewFactory$/^(bakery|yang-anderson)$' 1000 ./internal/runner
bench "$tmp/sim" 'BenchmarkConstruct$|BenchmarkDecode$|BenchmarkEncodeDecode$|BenchmarkFullPipeline$' 500 .
bench "$tmp/sim" 'BenchmarkExperimentsWorkers$' 3 .
bench "$tmp/store" 'BenchmarkStoreGetPut$' 300000 ./internal/store
bench "$tmp/store" 'BenchmarkRemoteMGet$|BenchmarkRemoteMPut$' 400 ./internal/remote
bench "$tmp/store" 'BenchmarkRemotePut$|BenchmarkRemoteGet$' 15000 ./internal/remote

go_version="$(go env GOVERSION)"

# ledger OUT IN writes the benchmark lines of go test output IN as the
# rows of ledger OUT, one per benchmark in first-run order, keeping OUT's
# baseline block when it has one. A row's allocs/op and B/op are the least
# of its runs, and its ns/op their median (the lower middle of an even
# count).
ledger() {
  baseline=""
  if [ -f "$1" ]; then
    baseline="$(awk '/^"baseline":\[/{f=1;next} /^\],/{f=0} f' "$1")"
  fi
  awk -v go_version="$go_version" -v baseline="$baseline" '
    /^pkg:/ { pkg = $2 }
    /^Benchmark/ {
      name = $1
      sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
      ns = ""; bytes = ""; allocs = ""
      for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
      }
      k = pkg " " name
      if (!(k in runs)) {
        order[++nrows] = k; rname[k] = name; rpkg[k] = pkg; iters[k] = $2
        minb[k] = bytes; mina[k] = allocs
      }
      nsv[k, ++runs[k]] = ns
      if (bytes + 0 < minb[k] + 0) minb[k] = bytes
      if (allocs + 0 < mina[k] + 0) mina[k] = allocs
    }
    END {
      for (r = 1; r <= nrows; r++) {
        k = order[r]; n = runs[k]
        for (i = 2; i <= n; i++) {  # insertion sort of the ns/op values
          v = nsv[k, i]
          for (j = i - 1; j >= 1 && nsv[k, j] + 0 > v + 0; j--) nsv[k, j + 1] = nsv[k, j]
          nsv[k, j + 1] = v
        }
        row = sprintf("  {\"name\":\"%s\",\"pkg\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s}",
                      rname[k], rpkg[k], iters[k], nsv[k, int((n + 1) / 2)], minb[k], mina[k])
        rows = rows (rows == "" ? "" : ",\n") row
      }
      printf "{\"go\":\"%s\",", go_version
      if (baseline != "")
        printf "\n\"baseline\":[\n%s\n],\n", baseline
      printf "\"benchmarks\":[\n%s\n]}\n", rows
    }
  ' "$2" >"$1"
  echo "wrote $1:" >&2
  cat "$1" >&2
}

ledger "$sim_out" "$tmp/sim"
ledger "$store_out" "$tmp/store"
