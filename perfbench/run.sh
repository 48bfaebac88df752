#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload serial --seed 1 --seconds 15 --trace 0
#
# The Go build cache, module cache and binary all live under .bench_build/
# in the checkout, and the toolchain is kept offline and local, so a run
# reads and writes nothing outside the checkout but the Go installation.
# Build output goes to standard error; standard output carries only the
# benchmark's own report.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
