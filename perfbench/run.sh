#!/usr/bin/env bash
# Builds the benchmark program from this checkout and runs it. Every build and
# run artifact stays under .bench_build/ at the checkout root, and nothing is
# downloaded (GOPROXY=off, GOTOOLCHAIN=local).
#
#   bash perfbench/run.sh --workload sim-small --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all
#   bash perfbench/run.sh --compare old.json new.json
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
