#!/bin/bash
# Entry point BENCHMARK.json names. It builds the harness from the checkout
# it is run in and hands its arguments over. The go tool's build cache,
# scratch space and per-user state (telemetry counters) are kept under
# .bench_build, so a run reads and writes nothing outside the checkout;
# `go run ./bench/e2e` is the same benchmark with the user's own cache.
set -eu
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
# With a fresh config directory the go command's first run starts a detached
# telemetry child that outlives it. Telemetry mode "off" keeps it from
# starting, so every process of a run is ended when the run ends.
mkdir -p "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/bin/e2e" ./bench/e2e
exec "$build/bin/e2e" "$@"
