#!/usr/bin/env bash
# Builds the benchmark and the shipped server binaries from the source tree
# around it, then runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload study --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binaries, scratch caches)
# lives under $CARGO_TARGET_DIR, by default .bench_build in the current
# directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/espserve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/espserve here)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/" ./cmd/espserve ./cmd/esprouter >&2

exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
