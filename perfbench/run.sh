#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
