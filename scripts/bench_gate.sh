#!/bin/sh
# Benchmark regression gate (make bench-gate, part of make ci).
#
# Re-runs the two recorded benchmark families and compares them against
# the committed BENCH_gateway.json / BENCH_dsp.json records via
# `cic-bench -gate`. The authoritative check is allocs/op — Go's
# allocation accounting is deterministic per code path, so growth past
# max(+10%, +5) over the committed value fails on any machine without
# flaking. Wall-clock numbers are machine-sensitive and are NOT gated
# here; re-measure them with `make bench-matrix` when touching the hot
# path and commit the refreshed records.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}

echo "bench-gate: gateway streaming pipeline and preamble scan vs BENCH_gateway.json"
$GO test -run '^$' -bench 'GatewayStream|PreambleScanDownchirp' -benchtime=10x ./ \
	| $GO run ./cmd/cic-bench -gate BENCH_gateway.json

echo "bench-gate: DSP kernels vs BENCH_dsp.json"
$GO test -run '^$' -bench 'FFT4096|ForwardWindowed1024|ForwardWindowedPrefix1024|IntersectFold1024|DFTBin1024|DFTBinPair1024|SearchFineGridPair1024|BinProbe1024' -benchtime=1000x ./internal/dsp/ \
	| $GO run ./cmd/cic-bench -gate BENCH_dsp.json

echo "bench-gate: all benchmarks within committed allocation budgets"
