#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:  bash bench/run.sh --workload node_memory --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run read or write stays inside the checkout,
# under .bench_build/ (build cache, binary, store directories, span files).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a kaleidoscope checkout (go.mod, internal/, bench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$root/bench" -o "$out/kscope-bench" .
exec "$out/kscope-bench" -workdir "$out/work" "$@"
