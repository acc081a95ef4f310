#!/usr/bin/env bash
# End-to-end smoke of the network ingestion pipeline:
#   cic-gen capture → cic-feed → cic-gatewayd → NDJSON assert.
# Builds the tools, generates a 3-packet collision with known ground
# truth, streams it into a live daemon over TCP, drains the daemon with
# SIGTERM, and asserts every ground-truth payload appears CRC-verified
# in the NDJSON output. Then the resilience legs: a mid-stream
# SIGKILL + restart of cic-feed must resume gap-free, and a two-shard
# cic-routerd fleet must survive a backend SIGKILL with exactly-once
# output (see the cluster scenario at the bottom).
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
daemon=
pids=()
cleanup() {
    [ -n "$daemon" ] && kill "$daemon" 2>/dev/null || true
    for p in ${pids[@]+"${pids[@]}"}; do
        kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

# wait_addr_file PATH PID LOG — block until the daemon at PID writes its
# bound addresses to PATH, bailing out with its log if it dies first.
wait_addr_file() {
    local path=$1 pid=$2 log=$3
    for _ in $(seq 100); do
        [ -s "$path" ] && return 0
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "smoke: FAIL — daemon exited during startup (listen address in use?)"
            cat "$log"
            exit 1
        fi
        sleep 0.1
    done
    echo "smoke: daemon never bound"
    cat "$log"
    exit 1
}

echo "smoke: building tools"
go build -o "$tmp/bin/" ./cmd/cic-gen ./cmd/cic-feed ./cmd/cic-gatewayd \
    ./cmd/cic-routerd ./cmd/cic-decode ./cmd/cic-promcheck

echo "smoke: generating collision capture"
"$tmp/bin/cic-gen" -out "$tmp/capture.cf32" -packets 3 -payload 12 -cr 3 -seed 7 > "$tmp/truth.csv"

echo "smoke: starting cic-gatewayd"
"$tmp/bin/cic-gatewayd" -listen 127.0.0.1:0 -out "$tmp/out.ndjson" \
    -addr-file "$tmp/addr" -debug-addr 127.0.0.1:0 -quiet 2> "$tmp/daemon.log" &
daemon=$!
for _ in $(seq 100); do
    [ -s "$tmp/addr" ] && break
    if ! kill -0 "$daemon" 2>/dev/null; then
        # Died before binding — most commonly the listen address is
        # already in use. Surface its log immediately instead of
        # spinning out the full wait.
        daemon=
        echo "smoke: FAIL — cic-gatewayd exited during startup (listen address in use?)"
        cat "$tmp/daemon.log"
        exit 1
    fi
    sleep 0.1
done
[ -s "$tmp/addr" ] || { echo "smoke: daemon never bound"; cat "$tmp/daemon.log"; exit 1; }
addr=$(head -n1 "$tmp/addr")

echo "smoke: feeding capture to $addr"
"$tmp/bin/cic-feed" -addr "$addr" -in "$tmp/capture.cf32" -station smoke -cr 3

# Telemetry assertions against the live daemon: liveness/readiness
# probes plus a strict Prometheus text-format validation of /metrics,
# including the per-station labeled series the feed just produced.
dbg=$(sed -n '3p' "$tmp/addr")
[ -n "$dbg" ] || { echo "smoke: FAIL — no debug address in addr-file"; exit 1; }
echo "smoke: probing http://$dbg"
"$tmp/bin/cic-promcheck" -probe "http://$dbg/healthz" -body-contains ok
"$tmp/bin/cic-promcheck" -probe "http://$dbg/readyz" -body-contains ok
"$tmp/bin/cic-promcheck" -metrics "http://$dbg/metrics" \
    -require server_sessions_total,server_frames_ingested,server_packets_published \
    -require server_station_sessions,server_station_frames_ingested \
    -require server_station_bytes_ingested,server_station_packets_published \
    -contains 'server_station_sessions{station="smoke"} 1' \
    -contains 'server_station_frames_ingested{station="smoke"}' \
    -contains 'server_station_packets_published{station="smoke",crc="ok"}'
"$tmp/bin/cic-promcheck" -probe "http://$dbg/debug/flight" -body-contains '"events"'

echo "smoke: draining daemon (SIGTERM)"
kill -TERM "$daemon"
wait "$daemon" || { echo "smoke: daemon exited non-zero"; cat "$tmp/daemon.log"; exit 1; }
daemon=

fail=0
while IFS=, read -r _node _start _snr _cfo hex; do
    if ! grep -q "\"payload\":\"$hex\"" "$tmp/out.ndjson"; then
        echo "smoke: FAIL — ground-truth payload $hex missing from NDJSON"
        fail=1
    fi
done < <(tail -n +2 "$tmp/truth.csv")
if ! grep -q '"ok":true' "$tmp/out.ndjson"; then
    echo "smoke: FAIL — no CRC-verified records"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "--- truth ---";  cat "$tmp/truth.csv"
    echo "--- ndjson ---"; cat "$tmp/out.ndjson"
    exit 1
fi

# Cross-check: cic-decode over the same capture from stdin must find the
# same payloads with constant memory.
echo "smoke: cross-checking with cic-decode"
"$tmp/bin/cic-decode" -in - -cr 3 < "$tmp/capture.cf32" > "$tmp/decode.out"
while IFS=, read -r _node _start _snr _cfo hex; do
    if ! grep -q "payload=$hex" "$tmp/decode.out"; then
        echo "smoke: FAIL — cic-decode missed payload $hex"
        cat "$tmp/decode.out"
        exit 1
    fi
done < <(tail -n +2 "$tmp/truth.csv")

# Resilience check: kill cic-feed mid-stream, restart it on the same
# station, and assert the resumed session yields every ground-truth
# payload exactly once — no gaps, no duplicates.
echo "smoke: restart-resume — starting fresh cic-gatewayd"
"$tmp/bin/cic-gatewayd" -listen 127.0.0.1:0 -out "$tmp/out2.ndjson" \
    -addr-file "$tmp/addr2" -debug-addr 127.0.0.1:0 -quiet 2> "$tmp/daemon2.log" &
daemon=$!
for _ in $(seq 100); do
    [ -s "$tmp/addr2" ] && break
    sleep 0.1
done
[ -s "$tmp/addr2" ] || { echo "smoke: resume daemon never bound"; cat "$tmp/daemon2.log"; exit 1; }
addr2=$(head -n1 "$tmp/addr2")

# Throttle so the full capture takes ~5s of streaming, then kill the
# feeder mid-stream with SIGKILL (no chance for a clean CLOSE).
samples=$(( $(wc -c < "$tmp/capture.cf32") / 8 ))
rate=$(( samples / 5 ))
echo "smoke: feeding throttled ($rate samples/s), killing mid-stream"
"$tmp/bin/cic-feed" -addr "$addr2" -in "$tmp/capture.cf32" -station resume -cr 3 \
    -rate "$rate" 2> "$tmp/feed1.log" &
feed=$!
sleep 1.5
kill -9 "$feed" 2>/dev/null || true
wait "$feed" 2>/dev/null || true

echo "smoke: restarting cic-feed on the same station"
"$tmp/bin/cic-feed" -addr "$addr2" -in "$tmp/capture.cf32" -station resume -cr 3 \
    2> "$tmp/feed2.log"
grep -q "resuming at sample offset" "$tmp/feed2.log" || {
    echo "smoke: FAIL — restarted cic-feed did not resume a parked session"
    cat "$tmp/feed2.log"
    exit 1
}

# The resume must also show up in the per-station telemetry.
dbg2=$(sed -n '3p' "$tmp/addr2")
echo "smoke: checking resume telemetry on http://$dbg2"
"$tmp/bin/cic-promcheck" -metrics "http://$dbg2/metrics" \
    -require server_station_resumes \
    -contains 'server_station_resumes{station="resume"} 1'

echo "smoke: draining resume daemon (SIGTERM)"
kill -TERM "$daemon"
wait "$daemon" || { echo "smoke: resume daemon exited non-zero"; cat "$tmp/daemon2.log"; exit 1; }
daemon=

fail=0
while IFS=, read -r _node _start _snr _cfo hex; do
    count=$(grep -c "\"payload\":\"$hex\"" "$tmp/out2.ndjson" || true)
    if [ "$count" -ne 1 ]; then
        echo "smoke: FAIL — resumed stream has $count record(s) for payload $hex, want exactly 1"
        fail=1
    fi
done < <(tail -n +2 "$tmp/truth.csv")
if [ "$fail" -ne 0 ]; then
    echo "--- truth ---";   cat "$tmp/truth.csv"
    echo "--- ndjson ---";  cat "$tmp/out2.ndjson"
    echo "--- feed1 ---";   cat "$tmp/feed1.log"
    echo "--- feed2 ---";   cat "$tmp/feed2.log"
    exit 1
fi
echo "smoke: restart-resume OK — gap-free, duplicate-free after mid-stream kill"

# Cluster scenario: two gatewayd shards behind cic-routerd. SIGKILL the
# shard that owns the streaming session; the router must notice within
# the probe window (cluster_backend_healthy → 0, asserted with
# promcheck -await), fail the session over to the survivor via RESUME +
# replay, and the merged NDJSON must still carry every ground-truth
# payload exactly once.
echo "smoke: cluster — starting 2 gatewayd shards"
"$tmp/bin/cic-gatewayd" -listen 127.0.0.1:0 -out "" -pub 127.0.0.1:0 \
    -addr-file "$tmp/b0.addr" -quiet 2> "$tmp/b0.log" &
b0=$!; pids+=("$b0")
"$tmp/bin/cic-gatewayd" -listen 127.0.0.1:0 -out "" -pub 127.0.0.1:0 \
    -addr-file "$tmp/b1.addr" -quiet 2> "$tmp/b1.log" &
b1=$!; pids+=("$b1")
wait_addr_file "$tmp/b0.addr" "$b0" "$tmp/b0.log"
wait_addr_file "$tmp/b1.addr" "$b1" "$tmp/b1.log"

echo "smoke: cluster — starting cic-routerd"
"$tmp/bin/cic-routerd" -listen 127.0.0.1:0 -out "$tmp/router.ndjson" \
    -backend "addr=$(sed -n 1p "$tmp/b0.addr"),name=shard-0,pub=$(sed -n 2p "$tmp/b0.addr")" \
    -backend "addr=$(sed -n 1p "$tmp/b1.addr"),name=shard-1,pub=$(sed -n 2p "$tmp/b1.addr")" \
    -probe-interval 250ms -addr-file "$tmp/router.addr" \
    -debug-addr 127.0.0.1:0 -quiet 2> "$tmp/router.log" &
router=$!; pids+=("$router")
wait_addr_file "$tmp/router.addr" "$router" "$tmp/router.log"
raddr=$(sed -n 1p "$tmp/router.addr")
rdbg=$(sed -n 3p "$tmp/router.addr")

# Throttle the feed so the kill lands mid-stream, with reconnect
# retries so the client rides out the failover window.
samples=$(( $(wc -c < "$tmp/capture.cf32") / 8 ))
rate=$(( samples / 5 ))
echo "smoke: cluster — feeding through the router at $raddr"
"$tmp/bin/cic-feed" -addr "$raddr" -in "$tmp/capture.cf32" -station cluster \
    -cr 3 -rate "$rate" -retries -1 2> "$tmp/feed3.log" &
feed=$!; pids+=("$feed")

"$tmp/bin/cic-promcheck" -metrics "http://$rdbg/metrics" \
    -await 5s -await-interval 100ms \
    -contains 'cluster_sessions_active 1' > /dev/null

if "$tmp/bin/cic-promcheck" -metrics "http://$rdbg/metrics" \
      -contains 'cluster_backend_sessions{backend="shard-0"} 1' > /dev/null 2>&1; then
    victim=$b0; victim_name=shard-0
else
    victim=$b1; victim_name=shard-1
fi
echo "smoke: cluster — SIGKILL $victim_name mid-stream"
kill -9 "$victim"
wait "$victim" 2>/dev/null || true

# Down-detection: the healthy gauge must flip within the probe window.
"$tmp/bin/cic-promcheck" -metrics "http://$rdbg/metrics" \
    -await 3s -await-interval 100ms \
    -contains "cluster_backend_healthy{backend=\"$victim_name\"} 0"

echo "smoke: cluster — waiting for the feed to complete through the failover"
if ! wait "$feed"; then
    echo "smoke: FAIL — cic-feed did not survive the backend kill"
    cat "$tmp/feed3.log"; cat "$tmp/router.log"
    exit 1
fi
"$tmp/bin/cic-promcheck" -metrics "http://$rdbg/metrics" \
    -require cluster_failovers_total,cluster_replayed_samples,cluster_records_relayed \
    -contains "cluster_failovers_total{backend=\"$victim_name\"}" > /dev/null

echo "smoke: cluster — draining router and surviving shard"
kill -TERM "$router"
wait "$router" || { echo "smoke: router exited non-zero"; cat "$tmp/router.log"; exit 1; }
for p in "$b0" "$b1"; do
    [ "$p" = "$victim" ] && continue
    kill -TERM "$p" 2>/dev/null || true
    wait "$p" 2>/dev/null || true
done
pids=()

fail=0
while IFS=, read -r _node _start _snr _cfo hex; do
    count=$(grep -c "\"payload\":\"$hex\"" "$tmp/router.ndjson" || true)
    if [ "$count" -ne 1 ]; then
        echo "smoke: FAIL — cluster stream has $count record(s) for payload $hex, want exactly 1"
        fail=1
    fi
done < <(tail -n +2 "$tmp/truth.csv")
if [ "$fail" -ne 0 ]; then
    echo "--- truth ---";   cat "$tmp/truth.csv"
    echo "--- ndjson ---";  cat "$tmp/router.ndjson"
    echo "--- router ---";  cat "$tmp/router.log"
    echo "--- feed ---";    cat "$tmp/feed3.log"
    exit 1
fi
echo "smoke: cluster OK — exactly-once through a $victim_name kill + failover"

echo "smoke: OK — $(wc -l < "$tmp/out.ndjson") NDJSON record(s) delivered"
