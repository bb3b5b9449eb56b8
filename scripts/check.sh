#!/bin/sh
# check.sh — the full local gate: `make check` (build, vet, gofmt, the
# arm64 fused-multiply-add check, tests, the race, generative-corpus soak,
# chaos and cluster-chaos suites, and the benchmark harness's self-tests). CI (.github/workflows/ci.yml) calls the
# same make targets for those steps, so each package list is defined once,
# in the Makefile.
set -eu

cd "$(dirname "$0")/.."

make check

echo "OK"
