#!/bin/sh
# BENCHMARK.json's command. Builds the benchmark from the checkout it sits
# in and becomes it, keeping everything the go command writes (build cache,
# temporary build trees, module cache, its own config and telemetry) under
# .bench_build/ in that checkout, so nothing outside it is read or written.
# The benchmark builds the two daemons itself.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
b="$root/.bench_build"
mkdir -p "$b/bin" "$b/gotmp"
export GOCACHE="$b/gocache" GOTMPDIR="$b/gotmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$root/bench" -o "$b/bin/gallerybench" .
exec "$b/bin/gallerybench" -root "$root" "$@"
