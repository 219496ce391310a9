#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash bench/run.sh [flags]        (see bench/README.md)
#
# Every build output, cache and scratch file stays under .bench_build/
# in the checkout, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/bench" build -o "$out/latlab-bench" .
exec "$out/latlab-bench" "$@"
