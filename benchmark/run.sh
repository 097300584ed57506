#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash benchmark/run.sh --workload scripted --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the working directory, so nothing is written outside it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
