#!/usr/bin/env bash
# Builds the service benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash servicebench/run.sh --workload hit --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache
# stay under .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off CGO_ENABLED=0

(cd "$root/servicebench" && go build -trimpath -buildvcs=false -o "$out/servicebench" .)
exec "$out/servicebench" "$@"
