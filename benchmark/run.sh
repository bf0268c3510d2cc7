#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the Go toolchain and the benchmark write — build cache,
# module cache, scratch databases — stays under .bench_build.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
if [ "${1:-}" = test ]; then
  # The module's own tests: the repository's `go test ./...` stops at
  # benchmark/go.mod and does not run them.
  cd benchmark && exec go test ./...
fi
(cd benchmark && go build -o "$build/just-benchmark" .)
exec "$build/just-benchmark" "$@"
