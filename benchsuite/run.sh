#!/bin/sh
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout root. The build cache, the
# binary and every scratch file stay under .bench_build at the checkout
# root. The build fails, and so does this script, when the checkout holds
# only the benchmark and not the repository it measures.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= XDG_CONFIG_HOME="$build/config"
(cd "$root/benchsuite" && go build -o "$build/deltabench-suite" .)
cd "$root"
exec "$build/deltabench-suite" -workdir "$build" "$@"
