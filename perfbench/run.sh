#!/usr/bin/env bash
# Builds and runs perfbench from the repository root. Every build
# artifact and Go cache stays under .bench_build/ in the checkout, and
# the toolchain never reaches the network. Arguments go to perfbench:
#
#   bash perfbench/run.sh --workload gups-detail --seed 1 --seconds 30 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
