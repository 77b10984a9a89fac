#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the Go toolchain
# writes (build cache, temporary files, its own counters, the binary) and
# everything the benchmark writes (WAL files, traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS="-mod=mod -modcacherw" \
	GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/hgcbench" . >&2
exec "$build/hgcbench" "$@"
