#!/usr/bin/env bash
# Builds cmd/schedd and the benchmark from the tree, then runs the
# benchmark. Run from the repository root:
#
#   bash schedbench/run.sh --workload read-mix --seed 1 --seconds 12 --trace 0
#
# Every build product, Go cache and temporary file stays under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$root/schedbench" && go build -o "$out/bin/schedd" repro/cmd/schedd && go build -o "$out/bin/schedbench" .)
exec "$out/bin/schedbench" -schedd "$out/bin/schedd" -workdir "$out" "$@"
