#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fullsys --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache, GOPATH, the compiler's scratch files and
# the go command's own user files (telemetry) live under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
