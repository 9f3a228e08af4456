#!/usr/bin/env bash
# Builds the harness from this directory and runs it on the checkout this
# directory sits in. Everything the Go toolchain writes — build cache,
# module cache, temp files, its own counters, the binaries — goes under
# .bench_build in the checkout, so a run reads and writes nothing outside
# it. The first run in a fresh checkout compiles the standard library into
# that cache (about 25 s on 2 CPUs); later runs reuse it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
