#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root, for example:
#
#   bash bench/run.sh --workload chain --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the current directory, and the build is offline. Without the repository's
# sources next to bench/ the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
