#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it,
# passing every argument through (see doc.go for the flags). Run it
# from the checkout's root:
#
#   bash perfbench/run.sh --workload attack-quanta --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and run scratch all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
cd "$root"
exec "$out/bin/perfbench" "$@"
