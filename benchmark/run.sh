#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout's root. Everything the build and the run write — Go's build
# cache and temporary files, the binary, the WAL files of http-mixed-rw —
# stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
