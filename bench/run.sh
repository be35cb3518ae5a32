#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the
# checkout's root, passing every argument through. The Go build cache
# lives under .bench_build too, so nothing outside the checkout is
# written and nothing is downloaded.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C bench -o "$out/admission-bench" .
exec "$out/admission-bench" "$@"
