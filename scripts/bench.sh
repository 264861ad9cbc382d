#!/bin/sh
# scripts/bench.sh — run the benchmark suite and record the results as
# BENCH_<n>.json at the repository root, so the performance trajectory of
# the hot paths is tracked PR over PR (BENCH_4.json is the pre-refactor
# baseline this series is measured against).
#
# Usage:
#   scripts/bench.sh <n> [bench-regex] [benchtime]
#
#   <n>           index of the BENCH_<n>.json file to write (required)
#   bench-regex   go test -bench pattern
#                 (default: the broadcast + baseline + sweep + the
#                 benchmark daemon's sweep grid + labeling
#                 + stage construction + slab build + family graph build
#                 + graph freeze and fingerprint + codec + store +
#                 serving hot paths)
#   benchtime     go test -benchtime value (default: 1s)
#
# Examples:
#   scripts/bench.sh 5
#   scripts/bench.sh 5 'BenchmarkBroadcastB$' 3s
set -eu

cd "$(dirname "$0")/.."

n="${1:?usage: scripts/bench.sh <n> [bench-regex] [benchtime]}"
pattern="${2:-BenchmarkBroadcastB\$|BenchmarkBroadcastBack\$|BenchmarkBroadcastBarb\$|BenchmarkBaselines\$|BenchmarkSweep\$|BenchmarkSweepWorkload\$|BenchmarkLabeling\$|BenchmarkStages\$|BenchmarkBitCSR\$|BenchmarkSessionCacheMiss\$|BenchmarkSessionCacheHit\$|BenchmarkStoreHit\$|BenchmarkEdgeListGraph\$|BenchmarkFamily\$|BenchmarkFreeze\$|BenchmarkFingerprint\$|BenchmarkCodec\$|BenchmarkStoreGet\$}"
benchtime="${3:-1s}"
out="BENCH_${n}.json"

# Recorded baselines are append-only: overwriting BENCH_<n>.json would
# silently rewrite the series history. Pick the next free index instead.
if [ -e "$out" ]; then
  echo "error: $out already exists; refusing to overwrite a recorded baseline" >&2
  exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" . | tee "$raw"

cpu="$(awk -F': ' '/^cpu:/ {print $2; exit}' "$raw")"

{
  printf '{\n'
  printf '  "bench": %s,\n' "$n"
  printf '  "note": "recorded by scripts/bench.sh (pattern %s, benchtime %s)",\n' "$pattern" "$benchtime" |
    sed 's/\\\$/$/g'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
  printf '  "go": "%s",\n' "$(go version | awk '{print $3}')"
  printf '  "cpu": "%s",\n' "$cpu"
  printf '  "benchmarks": [\n'
  awk '
    /^Benchmark/ {
      line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", $1, $2, $3, $5, $7)
      if (count++) printf(",\n")
      printf("%s", line)
    }
    END { printf("\n") }
  ' "$raw"
  printf '  ]\n'
  printf '}\n'
} > "$out"

echo "wrote $out"
