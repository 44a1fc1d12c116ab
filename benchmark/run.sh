#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark and runs it with
# the arguments given, keeping Go's build cache inside the checkout: the
# contract allows reads and writes nowhere else, and the first run in a
# fresh checkout is the one that may take minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
