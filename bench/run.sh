#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it with whatever arguments the driver passes
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the Go toolchain writes — build cache, temporary files, the
# binary — goes under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it. The first run in a checkout compiles the
# standard library into that cache; later runs relink in well under a
# second.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: this is not a checkout of the repository" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
