#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload rate1-guard --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, module cache, binary) stays under .bench_build/ in the working
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
