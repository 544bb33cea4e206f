#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload detailed-fp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the binary, the Go
# build cache, per-run artifacts) lands under .bench_build/ in the current
# directory. The benchmark is a module of its own that replaces the
# simulator module with the parent directory, so the build fails, and the
# script exits non-zero, when perfbench/ is not inside a checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/config" "$build/bin"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

# The build's output goes to stderr so the last line of stdout stays the
# benchmark's JSON result.
go build -C "$here" -o "$build/bin/perfbench" . 1>&2
exec "$build/bin/perfbench" "$@"
