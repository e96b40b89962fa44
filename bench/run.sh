#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh --workload small_cells --seed 1 --seconds 18 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays in .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off \
		go build -o "$build/wgbench" .
)
exec "$build/wgbench" "$@"
