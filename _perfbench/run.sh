#!/usr/bin/env bash
# Builds sphexa-serve and the perfbench program from this checkout's sources
# and runs perfbench with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload serve-mix --seed 3 --seconds 20 --trace 0
#
# Every build artifact, cache, server store and result stays under the
# checkout's .bench_build directory (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

go build -o "$build/bin/sphexa-serve" ./cmd/sphexa-serve
(cd _perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -work "$build" -serve "$build/bin/sphexa-serve" "$@"
