#!/bin/sh
# check.sh — the full local gate: `make check` (build, vet, gofmt, tests,
# and the race, chaos and cluster-chaos suites). CI (.github/workflows/ci.yml)
# calls the same make targets for its race and chaos steps, so each
# package list is defined once, in the Makefile.
set -eu

cd "$(dirname "$0")/.."

make check

echo "OK"
