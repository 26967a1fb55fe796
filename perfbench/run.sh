#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build and module caches and the go command's
# configuration directory live in .bench_build/ at the root, so a run
# writes nothing outside the checkout. The first build compiles the
# standard library into that cache; later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
