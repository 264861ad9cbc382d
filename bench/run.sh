#!/usr/bin/env bash
# Builds radiobcastd and the benchmark program from this checkout, then
# runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload run-hot --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Everything the build and the runs write (binaries, the Go build cache,
# the daemons' stores, span files) stays under .bench_build/ in the
# checkout. Run it from the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bin/radiobcast-bench" .)
(cd "$root" && go build -o "$out/bin/radiobcastd" ./cmd/radiobcastd)

exec "$out/bin/radiobcast-bench" -daemon "$out/bin/radiobcastd" -work "$out/work" -spec "$root/BENCHMARK.json" "$@"
