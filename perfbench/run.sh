#!/usr/bin/env bash
# Builds the sapsim benchmark from the sources in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-cell --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout. A build failure (for example, a directory that holds only
# the benchmark without the sapsim sources) exits non-zero with no result.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
