#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload rpc-produce --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary
# and the traced runs' artifacts (CPU profiles, Chrome traces).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/artifacts" "$@"
