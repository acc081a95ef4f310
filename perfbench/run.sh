#!/usr/bin/env bash
# Builds the perfbench benchmark and the cic-gatewayd / cic-routerd daemons
# from the sources of the checkout this script sits in, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload realtime --seed 1 --seconds 25 --trace 0
#
# Every build and run artefact goes under .bench_build/perfbench at the
# checkout root; nothing is written elsewhere.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off CGO_ENABLED=0

cd "$here"
go build -o "$out/bin/" cic/cmd/cic-gatewayd cic/cmd/cic-routerd .
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
