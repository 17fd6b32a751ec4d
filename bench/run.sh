#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload rc-gs-target --seed 1 --seconds 15 --trace 0
#
# The Go build cache, GOPATH, the go command's config and telemetry files,
# temporary files and the binary stay in bench-out/.bench/ at the
# repository root (bench-out/ is gitignored), so a run writes nothing
# outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/bench-out/.bench"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local
go -C "$root/bench" build -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
