#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload snp --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and the run's scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS="-mod=mod -buildvcs=false" GOPROXY=off GOSUMDB=off GOWORK=off GOTOOLCHAIN=local

(cd "$bench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build" "$@"
