#!/usr/bin/env bash
# Builds the benchmark and tegserve from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload controller --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binaries, run
# scratch) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
# With telemetry on (its default, "local"), the first go command under a
# fresh config directory forks an upload sidecar that outlives it.
printf 'off' > "$build/home/go/telemetry/mode"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off CGO_ENABLED=0

go build -o "$build/bin/tegserve" ./cmd/tegserve >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -tegserve "$build/bin/tegserve" -out "$build/out" -golden perfbench/golden.json "$@"
