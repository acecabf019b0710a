#!/usr/bin/env bash
# Builds the bench from source and runs it with the given arguments.
# Everything the go command writes (build cache, module cache, telemetry
# counters) is pointed into the checkout's own .bench_build/, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
