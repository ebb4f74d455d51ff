#!/usr/bin/env bash
# Builds the served-path benchmark from source and runs it from the root of
# the repository. Arguments pass through, e.g.
#   bash servebench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
# Build output, the Go build cache and the durable stores' temp dirs all
# live under .bench_build/ (or $CARGO_TARGET_DIR when set).
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd servebench && go build -o "$build/servebench" .)
exec "$build/servebench" --tmp "$build/tmp" "$@"
