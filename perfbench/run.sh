#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload codesign-mapping --seed 1 --seconds 22 --trace 0
#
# The Go build cache, module cache and temporary files live in .bench_build/,
# so the build writes nothing outside the checkout and needs no network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
