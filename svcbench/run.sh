#!/usr/bin/env bash
# Builds the service benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash svcbench/run.sh --workload hit-envelope --seed 1 --seconds 30 --trace 0
# Every build artefact and cache lives under .bench_build/ in the
# checkout; nothing is fetched, so a checkout without the relpipe module
# beside svcbench/ fails to build and exits non-zero.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/svcbench" && go build -o "$out/svcbench" .)
exec "$out/svcbench" --spans-dir "$out" "$@"
