#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the
# checkout: binary, Go build cache, scratch state) and runs it with the
# arguments given. Run from the repository root:
#
#   bash bench/run.sh --workload live-v5 --seed 42 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
