#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build product, cache and trace stays
# under .bench_build/ in the current directory, and the build never reaches
# a module proxy: the benchmark module resolves its one dependency, the
# repository's own module, through the replace directive in go.mod.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -out "$out" "$@"
