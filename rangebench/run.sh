#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash rangebench/run.sh --workload fleet-wipe --seed 1 --seconds 15 --trace 0
# Everything the build and the runs leave behind goes to .bench_build/
# under the repository root, including the Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd rangebench && go build -o "$out/rangebench" .)
exec "$out/rangebench" "$@"
