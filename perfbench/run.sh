#!/usr/bin/env bash
# Builds the host-cost benchmark from source and runs it; every argument
# is passed through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload retwis-causal --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh --workload all        # every metric of every workload
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
