#!/usr/bin/env bash
# Runs every workload on ten consecutive seeds and appends each result to
# a record file. Two such files, made from the same commit or from two
# commits, are compared metric by metric against BENCHMARK.json's bounds
# with:
#
#   bash bench/stability.sh a.jsonl 1
#   bash bench/stability.sh b.jsonl 11
#   bash bench/run.sh -compare a.jsonl b.jsonl
#
# Usage: bash bench/stability.sh <record-file> [first-seed]
set -euo pipefail

out="${1:?usage: bench/stability.sh <record-file> [first-seed]}"
first="${2:-1}"
here="$(dirname "${BASH_SOURCE[0]}")"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"

for w in run-hot label-cold store-restart sweep; do
  for seed in $(seq "$first" $((first + 9))); do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --record "$out" > /dev/null
  done
done
