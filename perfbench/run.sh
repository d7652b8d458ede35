#!/usr/bin/env bash
# Builds pxserve and the benchmark from the checkout it is run in, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload query-large --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go
# build cache, binaries, warehouse directories, span files) stays under
# .bench_build/perfbench in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pxserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/pxserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/pxserve" ./cmd/pxserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -pxserve "$out/bin/pxserve" -workdir "$out" "$@"
