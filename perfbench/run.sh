#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The Go build cache, the compiler's scratch
# files, the go command's own config and telemetry, and the binary all stay
# under .bench_build/ in the checkout, and dependencies come from the vendor
# tree, so nothing outside the checkout is written and nothing is fetched.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local

go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
