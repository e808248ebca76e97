#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the repository
# root: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build and the run leave behind goes to .bench_build.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root, with the iva module checked out" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
