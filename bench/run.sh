#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark (its own module
# in this directory) and cloudgraphd from the checkout it sits in, keeping
# every build artifact, cache and scratch file under <checkout>/.bench_build,
# then runs it with the given flags from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
