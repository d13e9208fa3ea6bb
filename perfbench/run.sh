#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.go). Run from anywhere: it works in the checkout root.
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
