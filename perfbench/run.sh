#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload campaign|check|sim --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Everything the build and the run write
# (Go build cache, temporary files, binary, scratch stores) stays under
# .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a weakorder checkout (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off

if ! go -C "$root/perfbench" build -o "$build/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$build/perfbench" "$@"
