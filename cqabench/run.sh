#!/usr/bin/env bash
# Builds cqad and the benchmark from source into .bench_build/ (the Go
# build cache included, so nothing is written outside the checkout), then
# runs the benchmark with the given arguments:
#
#   bash cqabench/run.sh --workload fd-live --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default "local" mode), every go command may spawn a
# detached upload child that outlives this script. "go telemetry off" starts
# no such child and records the mode under XDG_CONFIG_HOME for the builds.
go telemetry off

cd "$root/cqabench"
go build -o "$out/cqad" repro/cmd/cqad >&2
go build -o "$out/cqabench" . >&2
cd "$root"
exec "$out/cqabench" --cqad "$out/cqad" --trace-dir "$out/traces" "$@"
