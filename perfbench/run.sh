#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload replay-matrix --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under the build directory inside the checkout: $CARGO_TARGET_DIR
# when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"

(
	cd "$root/perfbench"
	HOME=$build/home XDG_CONFIG_HOME=$build/home/.config GOPATH=$build/home/go \
		GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" --out "$build" "$@"
