#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload chain4 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, daemon data
# directories, run reports, spans and CPU profiles.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The go command's caches, temporary files and telemetry counters all
# land under $out; it needs no network, since the module has no
# dependencies outside this checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# The host stamp names the checkout's own commit, never that of a
# repository around it.
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
