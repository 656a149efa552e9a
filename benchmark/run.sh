#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the build leaves behind - the binary, Go's build cache and the
# go command's own counter files - stays under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="${GOPATH:-$out/gopath}" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
go build -o "$out/wacobench" ./benchmark
exec "$out/wacobench" "$@"
