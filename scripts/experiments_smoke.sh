#!/bin/sh
# End-to-end smoke of the declarative experiment harness (make
# experiments-smoke): the committed downscaled config runs the full
# config → trial matrix → journal → aggregate pipeline, gets killed
# mid-matrix, resumes from the journal, and must produce byte-identical
# aggregates to the uninterrupted run.
set -eu

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT INT TERM

CONFIG=experiments/smoke.json
EXPERIMENTS="$WORK/cic-experiments"

echo "experiments-smoke: building cic-experiments"
go build -o "$EXPERIMENTS" ./cmd/cic-experiments

csv_check() {
    # Structural validity: comment line, header with the CIC series and
    # its ci95 column, and a nonzero decoded PRR in the CIC column.
    f="$1"
    [ -s "$f" ] || { echo "experiments-smoke: FAIL: $f empty" >&2; exit 1; }
    sed -n 2p "$f" | grep -q '^offered pkts/s,CIC,CIC ci95' || {
        echo "experiments-smoke: FAIL: $f header malformed: $(sed -n 2p "$f")" >&2; exit 1; }
    awk -F, 'NR>2 && $2+0 > 0 { ok=1 } END { exit ok ? 0 : 1 }' "$f" || {
        echo "experiments-smoke: FAIL: $f has no nonzero CIC PRR" >&2; exit 1; }
}

journal_check() {
    # Every journal line is a JSON object carrying the config identity.
    j="$1"
    [ -s "$j" ] || { echo "experiments-smoke: FAIL: journal $j empty" >&2; exit 1; }
    if grep -qv '^{.*"config_sha":"[0-9a-f]\{64\}".*}$' "$j"; then
        echo "experiments-smoke: FAIL: journal $j has malformed lines" >&2; exit 1
    fi
}

echo "experiments-smoke: uninterrupted reference run"
"$EXPERIMENTS" -config "$CONFIG" -journal "$WORK/ref.ndjson" \
    -outdir "$WORK/ref" -quiet >/dev/null
csv_check "$WORK/ref/smoke_D1.csv"
journal_check "$WORK/ref.ndjson"

echo "experiments-smoke: kill mid-matrix, then resume"
# -stop-after halts the run after 2 of 4 trials exactly as a kill would
# leave it: a partial journal. Also exercise a real SIGKILL arriving
# while a second invocation is mid-matrix — whichever trials it
# completed are journaled; the torn tail (if any) must be tolerated.
"$EXPERIMENTS" -config "$CONFIG" -journal "$WORK/res.ndjson" \
    -stop-after 2 -trial-concurrency 1 -quiet >/dev/null
lines=$(wc -l < "$WORK/res.ndjson")
[ "$lines" -eq 2 ] || {
    echo "experiments-smoke: FAIL: expected 2 journaled trials after stop, got $lines" >&2; exit 1; }
"$EXPERIMENTS" -config "$CONFIG" -journal "$WORK/res.ndjson" \
    -outdir "$WORK/res" -quiet >/dev/null &
pid=$!
sleep 0.2
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$EXPERIMENTS" -config "$CONFIG" -journal "$WORK/res.ndjson" \
    -outdir "$WORK/res" -quiet >/dev/null
cmp "$WORK/ref/smoke_D1.csv" "$WORK/res/smoke_D1.csv" || {
    echo "experiments-smoke: FAIL: resumed aggregates differ from uninterrupted run" >&2; exit 1; }

echo "experiments-smoke: PASS (kill-resume byte-identical)"
