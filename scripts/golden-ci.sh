#!/bin/sh
# golden-ci.sh runs every experiment at CI scale,
#
#	go run ./cmd/faction-bench -exp all -scale ci -seed 42
#
# masks its wall-clock fields (mask-walltime.awk) and compares the result
# with results/golden-ci.txt: every metric of every experiment must come out
# exactly as committed. A change that keeps every bit leaves the golden
# untouched; a change that moves a bit on purpose regenerates it with
# `scripts/golden-ci.sh -update` and says so.
#
# The golden holds where it was recorded: amd64 below GOAMD64=v3 (from v3
# the Go spec lets the compiler fuse x*y + z), with the assembly kernels
# built and a CPU that runs them (the whitened density kernel rounds through
# FMA, its portable loop does not). Elsewhere the script says why it skips
# and exits 0.
set -eu
cd "$(dirname "$0")/.."
GO=${GO:-go}
golden=results/golden-ci.txt

arch=$($GO env GOARCH)
level=$($GO env GOAMD64)
skip=""
if [ "$arch" != amd64 ]; then
	skip="GOARCH=$arch"
elif [ "$level" = v3 ] || [ "$level" = v4 ]; then
	skip="GOAMD64=$level"
elif $GO env GOFLAGS | grep -q noasm; then
	skip="GOFLAGS has noasm"
elif ! grep -qw avx2 /proc/cpuinfo 2>/dev/null || ! grep -qw fma /proc/cpuinfo 2>/dev/null; then
	skip="no AVX2 and FMA in /proc/cpuinfo"
fi
if [ -n "$skip" ]; then
	echo "golden-ci: skipped ($skip); $golden holds on amd64 below v3 with the assembly kernels on"
	exit 0
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT
$GO run ./cmd/faction-bench -exp all -scale ci -seed 42 >"$raw"
if [ "${1:-}" = -update ]; then
	awk -f scripts/mask-walltime.awk "$raw" >"$golden"
	echo "golden-ci: wrote $golden"
	exit 0
fi
awk -f scripts/mask-walltime.awk "$raw" | diff -u "$golden" - || {
	echo "golden-ci: CI-scale results differ from $golden" >&2
	exit 1
}
echo "golden-ci: CI-scale results match $golden"
