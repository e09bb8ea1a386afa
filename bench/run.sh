#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the build leaves behind (the binary, Go's
# build cache and temporary files) goes under .bench_build at the checkout
# root; the program keeps its scratch files there too.
#
#   bash bench/run.sh --workload live-ring --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -runs 3 -trace 1          # the whole suite, one record
#   bash bench/run.sh -compare OLD.json NEW.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"

# The go tool writes its build cache, temporary files and telemetry
# counters under these; none of them may land outside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/vqbench" .)

export VQBENCH_DIR="$here"
exec "$build/vqbench" "$@"
