#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs, the Go build cache and the go command's own state
# (GOPATH, and telemetry counters under the user config directory) stay
# under .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is
# written outside the tree.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOENV=off
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
