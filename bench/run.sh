#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh [flags]; see bench/README.md.
#
# Everything the build leaves behind stays inside the checkout: the
# binary and Go's build cache live under .bench_build/.
set -euo pipefail
root=$PWD
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build"
# The go command's build cache, module cache and telemetry counters all
# default to the home directory; point every one of them into the checkout.
GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$root/bench" -o "$build/risa-bench" .
exec "$build/risa-bench" "$@"
