#!/usr/bin/env bash
# Builds the benchmark from source into benchmark/.build/ and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run write stays under benchmark/.build/,
# the toolchain's own files (module cache, telemetry counters) included.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$dir/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$dir" && go build -o "$build/elsm-benchmark" .)
exec "$build/elsm-benchmark" --trace-out "$build/trace.json" "$@"
