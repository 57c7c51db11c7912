#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything Go writes (build cache, binary) stays under
# .bench_build/ at the checkout root; results and traces go to benchmark/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/sesemi-benchmark" .)
cd "$root"
exec "$build/sesemi-benchmark" "$@"
