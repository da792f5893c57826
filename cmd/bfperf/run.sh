#!/usr/bin/env bash
# Builds bfperf from source and runs it from the repository root with the
# given arguments, e.g.
#
#   bash cmd/bfperf/run.sh --workload oltp-http --seed 3 --seconds 10 --trace 0
#   bash cmd/bfperf/run.sh -seed 1 -out a.json
#
# The binary and the Go build cache live under .bench_build/ in the
# repository root, so a run writes nothing outside the checkout. The
# benchmark is a module of its own that builds the repository's packages
# from ../..; without them the build fails and no result is printed.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C cmd/bfperf build -o "$build/bfperf" .
exec "$build/bfperf" "$@"
