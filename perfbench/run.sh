#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# run artefact under .bench_build/ in the current directory. Run it from
# the repository root, for example:
#
#   bash perfbench/run.sh --workload futex-shared --seed 1 --seconds 20 --trace 0
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
