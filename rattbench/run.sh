#!/usr/bin/env bash
# Builds the rattd benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash rattbench/run.sh --workload udp-flood --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, the binary, results and span
# traces all stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# The go command's cache, temporary files, module path and user config
# (telemetry counters included) all stay inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/rattbench" && go build -o "$out/rattbench" .)
exec "$out/rattbench" "$@"
