#!/bin/bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ (Go build cache included, so nothing is written outside the
# checkout) and runs it with the driver's arguments. Run from the repo root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/stackbench" .
exec "$build/stackbench" "$@"
