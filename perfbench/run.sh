#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload live-stream --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write — the Go build cache, the
# binary, WAL directories and span dumps — stays under .bench_build at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
