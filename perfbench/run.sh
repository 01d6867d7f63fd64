#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and output file stays under .bench_build/
# in the current directory; the Go toolchain is kept offline.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME holds the go command's own config and telemetry files.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
