#!/usr/bin/env bash
# Builds cmd/mcrbench from source inside the checkout and runs it from the
# repository root. Everything the build leaves behind (Go build cache,
# temporary files, the binary) stays under .bench_build/; the benchmark
# itself writes only under bench/out/. Arguments go to mcrbench unchanged:
#
#   bash bench/run.sh --workload membound_1c --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$root/cmd/mcrbench" build -o "$build/mcrbench" .
cd "$root"
exec "$build/mcrbench" "$@"
