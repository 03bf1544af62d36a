#!/usr/bin/env bash
# run.sh — build stored, experimentd and the perfbench driver from this
# checkout, then run one benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload reproduce-cold --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binaries, per-run scratch stores and traced spans. The
# first run compiles the toolchain's standard library into that cache;
# later runs only re-check it. The last stdout line is the driver's JSON
# result; build output and diagnostics go to stderr.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off
export GOFLAGS=
export GOMAXPROCS=2
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

go build -o "$build/bin/" ./cmd/stored ./cmd/experimentd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
