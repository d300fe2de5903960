#!/usr/bin/env bash
# Entry point the pipeline calls (BENCHMARK.json "command"): build the
# benchmark from the checkout's source, then run it with the given flags.
# Everything the build writes — binary, Go build cache, module cache —
# stays in .bench_build/ inside the checkout. In a directory without the
# repository's go.mod the build fails and this script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOWORK=off \
	go build -buildvcs=false -o "$build/piobench" ./benchmark
exec "$build/piobench" "$@"
