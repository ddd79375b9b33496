#!/usr/bin/env bash
# Builds rumord and the benchmark from the checkout this is run in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash rumorbench/run.sh --workload solve --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under .bench_build in that root, including the Go build cache.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rumord" || ! -f "$root/rumorbench/go.mod" ]]; then
	echo "rumorbench: run from the repository root (no go.mod, cmd/rumord or rumorbench here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOENV=off
go build -o "$out/rumord" ./cmd/rumord
(cd "$root/rumorbench" && go build -o "$out/rumorbench" .)
exec "$out/rumorbench" -rumord "$out/rumord" -root "$root" "$@"
