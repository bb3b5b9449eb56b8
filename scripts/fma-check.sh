#!/bin/sh
# fma-check.sh — fail if Go fused any float multiply-add in the packages
# whose results are pinned bit for bit. On arm64 (and ppc64le, s390x) the
# compiler may fuse x*y+z into one instruction that rounds once, which
# changes results against amd64; writing the product as float64(x*y)
# forbids it. The check cross-compiles each package, and its test binary,
# for arm64 and searches the assembly listing for fused ops. It needs no
# arm64 machine or emulator.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
PKGS="core features interp serve stats heuristics pgo"
FUSED='[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]'

fail=0
for p in $PKGS; do
	pkg=repro/internal/$p
	for build in "build" "test -c -o /dev/null"; do
		# shellcheck disable=SC2086 # $build is two or four words.
		asm=$(GOARCH=arm64 $GO $build -gcflags="$pkg=-S" "./internal/$p" 2>&1)
		if ! printf '%s\n' "$asm" | grep -q 'STEXT'; then
			echo "fma-check: no assembly listing from go $build ./internal/$p:" >&2
			printf '%s\n' "$asm" | tail -5 >&2
			exit 1
		fi
		if printf '%s\n' "$asm" | grep -E "$FUSED" >/dev/null; then
			echo "fma-check: fused multiply-add in go $build ./internal/$p:" >&2
			printf '%s\n' "$asm" | grep -E "$FUSED" | grep -o '([^)]*)' | sort | uniq -c >&2
			fail=1
		fi
	done
done
[ "$fail" -eq 0 ] && echo "fma-check: no fused multiply-add in $PKGS"
exit "$fail"
