#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from the
# checkout's source into .bench_build/ and runs it with the arguments
# given. The Go build cache and temporary files live under .bench_build/
# too, so a run reads and writes nothing outside its checkout; the first
# run in a checkout therefore compiles the standard library as well.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/axml-benchmark" ./benchmark
exec "$build/axml-benchmark" "$@"
