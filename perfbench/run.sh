#!/usr/bin/env bash
# Builds the benchmark and the shogund daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 32 --trace 0
#
# Every build and run artefact (Go build cache, binaries, daemon logs,
# span dumps) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
    XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$root/perfbench"
go build -o "$out/bin/perfbench" .
go build -o "$out/bin/shogund" shogun/cmd/shogund
cd "$root"
exec "$out/bin/perfbench" -shogund "$out/bin/shogund" -workdir "$out/run" "$@"
