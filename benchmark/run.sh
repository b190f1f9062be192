#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind — the binary, the Go build cache,
# temporary files — stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# HOME too: the go command keeps its configuration and telemetry there.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	go build -C "$here" -o "$build/thedb-benchmark" .
cd "$root"
exec "$build/thedb-benchmark" "$@"
