#!/bin/sh
# Builds the benchmark and runs it from bench/ with the given arguments.
# The build cache and the binary stay inside bench/ (.bench_build/, which
# go's ./... patterns skip), so a run reads and writes nothing outside it.
set -e
here=$(cd "$(dirname "$0")" && pwd)
build=$here/.bench_build
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
cd "$here"
go build -o "$build/bench" .
exec "$build/bench" "$@"
