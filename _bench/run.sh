#!/bin/bash
# The benchmark's command (see BENCHMARK.json): build _bench/ from source
# inside the checkout, then run it with the caller's arguments. Everything
# the Go toolchain writes — build cache, temporary files, telemetry —
# goes under .bench_build in the checkout, so a run reads and writes
# nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/_bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
