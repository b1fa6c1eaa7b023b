#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload core-long --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all stay
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out" "$@"
