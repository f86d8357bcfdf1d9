#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it, passing
# every argument through:
#
#   bash xwhbench/run.sh --workload point-lookup --seed 1 --seconds 15 --trace 0
#
# All build state (compiler cache, module cache, toolchain config) and the
# traced run's span journal stay under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/xwhbench"
build="$(cd "$build" && pwd)"
out="$build/xwhbench"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/xwhbench" build -o "$out/xwhbench" .
exec "$out/xwhbench" --spans "$out/spans.jsonl" "$@"
