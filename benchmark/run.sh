#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, from the
# repository root:
#
#   bash benchmark/run.sh --workload pla-hard --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare setA setB
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

# Keep the toolchain's caches, temporary files and telemetry inside the
# checkout, ignore any user or workspace settings, and never reach for
# the network.
(
	cd "$bench"
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/ucpbench" .
)
exec "$build/ucpbench" "$@"
