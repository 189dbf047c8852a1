#!/usr/bin/env bash
# Builds the benchmark and the topogen input generator from the checkout's
# sources, then runs the benchmark with the given flags, e.g.
#
#   bash bench/run.sh --workload sweep-cold --seed 42 --seconds 20 --trace 0
#
# (20 seconds is also the default.) Every build product and Go cache lives
# under .bench_build/ in the checkout root, so a run reads and writes
# nothing outside the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C bench -o "$build/bin/bench" . >&2
go build -o "$build/bin/topogen" ./cmd/topogen >&2
exec "$build/bin/bench" --topogen "$build/bin/topogen" --work "$build/work" "$@"
