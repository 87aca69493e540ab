#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper_grid --seed 1 --seconds 30 --trace 0
#
# Every Go cache and config directory points inside .bench_build/, so the
# build reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ needed)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
