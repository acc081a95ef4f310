#!/usr/bin/env bash
# Decode byte-identity check against a base revision:
#
#   make decode-parity BASE=<rev>     (or scripts/decode_parity.sh <rev>)
#
# Builds cic-gen and cic-decode at <rev> (from a git archive under
# .bench_build/) and from this checkout, generates the three check
# captures with each side's cic-gen, decodes each capture in the default
# mode, with `-workers 1` and with `-workers 2 -chunk 1000` with each
# side's cic-decode, and compares every capture and every output with
# cmp. Exits non-zero on the first difference. A change that claims to
# leave decoding untouched (a refactor, or an exact-identity speed-up)
# runs this against its parent. Not part of `make ci`: it takes a few
# minutes and needs a second revision.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

base=${1:?usage: scripts/decode_parity.sh <base-rev>}
rev=$(git rev-parse --verify "$base^{commit}")
out="$root/.bench_build/parity"
wt="$out/src-base"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

rm -rf "$out"
mkdir -p "$wt"
git archive "$rev" | tar -x -C "$wt"
trap 'rm -rf "$wt"' EXIT

echo "decode-parity: building base ${rev:0:12} and this checkout"
(cd "$wt" && go build -o "$out/base/" ./cmd/cic-gen ./cmd/cic-decode)
go build -o "$out/head/" ./cmd/cic-gen ./cmd/cic-decode

# A base from before cic-decode had a single mode streams with -stream.
declare -A sideflags=([base]="" [head]="")
if "$out/base/cic-decode" -h 2>&1 | grep -q -- '-stream'; then
	sideflags[base]="-stream"
fi

# name | cic-gen flags | cic-decode flags
captures=(
	"d1-r100-s3|-deployment D1 -rate 100 -seconds 8 -seed 3|"
	"d3-r60-s1|-deployment D3 -rate 60 -seconds 4 -seed 1|"
	"sf10-d1-r20-s2|-deployment D1 -rate 20 -seconds 6 -seed 2 -sf 10|-sf 10"
)
modes=(
	"default|"
	"w1|-workers 1"
	"w2-c1000|-workers 2 -chunk 1000"
)

fail=0
for c in "${captures[@]}"; do
	IFS='|' read -r name gen dec <<<"$c"
	for side in base head; do
		# shellcheck disable=SC2086 # flag lists split on purpose
		"$out/$side/cic-gen" $gen -out "$out/$name.$side.cf32" >/dev/null
	done
	if ! cmp "$out/$name.base.cf32" "$out/$name.head.cf32"; then
		echo "decode-parity: FAIL — $name capture differs"
		fail=1
		continue
	fi
	for mode in "${modes[@]}"; do
		IFS='|' read -r mname mflags <<<"$mode"
		for side in base head; do
			start=$EPOCHREALTIME
			# shellcheck disable=SC2086
			"$out/$side/cic-decode" $dec ${sideflags[$side]} $mflags -in "$out/$name.base.cf32" \
				>"$out/$name.$mname.$side.out"
			awk -v a="$start" -v b="$EPOCHREALTIME" -v l="  $name $mname $side" \
				'BEGIN { printf "%-36s %6.1f s\n", l, b - a }'
		done
		if cmp "$out/$name.$mname.base.out" "$out/$name.$mname.head.out"; then
			echo "decode-parity: $name $mname identical ($(wc -l <"$out/$name.$mname.head.out") records)"
		else
			echo "decode-parity: FAIL — $name $mname output differs"
			fail=1
		fi
	done
	rm -f "$out/$name".*.cf32
done

if [ "$fail" -ne 0 ]; then
	echo "decode-parity: FAIL against ${rev:0:12}"
	exit 1
fi
echo "decode-parity: every output byte-identical to ${rev:0:12}"
