package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"cic/internal/cluster"
	"cic/internal/server"
)

// TestRouterShardsAndMerges is the fault-free cluster equivalence test:
// six stations shard across three backends by consistent hash, every
// live session sits on its ring owner, and the merged deduplicated
// output is record-identical to a single-daemon run.
func TestRouterShardsAndMerges(t *testing.T) {
	cfg := testConfig()
	tc := startCluster(t, 3, clusterOpts{})

	traces := map[string][]complex128{}
	for i := 0; i < 6; i++ {
		station := fmt.Sprintf("merge-%d", i)
		iq, _ := collisionTrace(t, cfg, 300+int64(i), station)
		traces[station] = iq
	}
	baseline := singleDaemonBaseline(t, cfg, traces)

	// Open every session first so the shard placement can be inspected
	// while all six are live.
	clients := map[string]chaosClient{}
	for station := range traces {
		c := helloClient(t, tc.addr, station, cfg)
		if c == nil {
			t.Fatal("handshake failed")
		}
		clients[station] = c
	}
	used := map[string]bool{}
	for station := range traces {
		want := tc.router.BackendFor(station)
		if got := tc.router.SessionBackend(station); got != want {
			t.Errorf("%s routed to %q, ring owner is %q", station, got, want)
		}
		used[want] = true
	}
	if len(used) < 2 {
		t.Errorf("6 stations all hashed onto %d backend(s); want spread", len(used))
	}
	if n := tc.router.SessionCount(); n != 6 {
		t.Errorf("SessionCount = %d, want 6", n)
	}

	runStations(t, traces, func(station string) chaosClient { return clients[station] })
	merged := tc.shutdownAndCollect()
	assertIdentical(t, baseline, merged)

	snap := tc.reg.Snapshot()
	if got := snap.Counters[cluster.MetricSessionsTotal]; got != 6 {
		t.Errorf("%s = %d, want 6", cluster.MetricSessionsTotal, got)
	}
	var total int
	for _, recs := range baseline {
		total += len(recs)
	}
	if got := snap.Counters[cluster.MetricRecordsRelayed]; got != int64(total) {
		t.Errorf("%s = %d, want %d", cluster.MetricRecordsRelayed, got, total)
	}
	if got := snap.Counters[cluster.MetricRecordsDeduped]; got != 0 {
		t.Errorf("%s = %d on a fault-free run, want 0", cluster.MetricRecordsDeduped, got)
	}
	if got := snap.Gauges[cluster.MetricSessionsActive]; got != 0 {
		t.Errorf("%s = %d after shutdown, want 0", cluster.MetricSessionsActive, got)
	}
}

// TestRouterShedsBackendOverloadVerbatim: a backend's structured
// overload rejection must surface through the router handshake as-is —
// the router never spills an overloaded station onto a non-owner shard.
func TestRouterShedsBackendOverloadVerbatim(t *testing.T) {
	cfg := testConfig()
	tc := startCluster(t, 1, clusterOpts{
		backendCfg: func(c *server.Config) { c.MaxSessions = 1 },
	})

	// Fill the backend's only admission slot from the side.
	hold, err := server.Dial(tc.backends[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Abort()
	if err := hold.Hello("holder", cfg); err != nil {
		t.Fatal(err)
	}

	c, err := server.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	err = c.Hello("shed-me", cfg)
	if err == nil {
		t.Fatal("session admitted past the backend's MaxSessions=1")
	}
	var se *server.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("rejection not a structured *ServerError: %v", err)
	}
	if se.Code != server.ErrCodeOverload || !se.Temporary() {
		t.Errorf("rejection code 0x%02x, want overload", se.Code)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("retry-after hint %v, want > 0 (backend hint must propagate)", se.RetryAfter)
	}
	if !strings.Contains(se.Reason, "session limit") {
		t.Errorf("reason %q does not carry the backend's reason", se.Reason)
	}

	snap := tc.reg.Snapshot()
	if got := vecTotal(snap.CounterVecs[cluster.MetricSheds]); got < 1 {
		t.Errorf("%s = %d, want ≥ 1", cluster.MetricSheds, got)
	}
	if got := snap.Counters[cluster.MetricRejected]; got < 1 {
		t.Errorf("%s = %d, want ≥ 1", cluster.MetricRejected, got)
	}
}

// TestRouterStationConflict: one routed session per station — a second
// concurrent stream for the same station would corrupt the dedup
// watermark, so it is rejected with a non-retryable error.
func TestRouterStationConflict(t *testing.T) {
	cfg := testConfig()
	tc := startCluster(t, 2, clusterOpts{})

	first := helloClient(t, tc.addr, "dup", cfg)
	if first == nil {
		t.Fatal("first handshake failed")
	}
	defer first.Close()

	c, err := server.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	err = c.Hello("dup", cfg)
	if err == nil {
		t.Fatal("second session for one station admitted")
	}
	var se *server.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("rejection not a structured *ServerError: %v", err)
	}
	if se.Temporary() {
		t.Error("station conflict marked retryable; clients would spin")
	}
	if !strings.Contains(se.Reason, "already has a routed session") {
		t.Errorf("reason %q does not name the conflict", se.Reason)
	}
}

// TestRouterSessionLimit: the router's own admission cap rejects with a
// structured overload carrying its retry-after hint.
func TestRouterSessionLimit(t *testing.T) {
	cfg := testConfig()
	tc := startCluster(t, 2, clusterOpts{
		routerCfg: func(c *cluster.Config) {
			c.MaxSessions = 1
			c.RetryAfter = 1500 * time.Millisecond
		},
	})

	hold := helloClient(t, tc.addr, "holder", cfg)
	if hold == nil {
		t.Fatal("holder handshake failed")
	}
	defer hold.Close()

	c, err := server.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	err = c.Hello("over", cfg)
	var se *server.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("over-limit handshake error = %v, want *ServerError", err)
	}
	if se.Code != server.ErrCodeOverload || se.RetryAfter != 1500*time.Millisecond {
		t.Errorf("got code 0x%02x retry-after %v, want overload with the configured 1.5s hint",
			se.Code, se.RetryAfter)
	}
	if !strings.Contains(se.Reason, "router session limit") {
		t.Errorf("reason %q does not name the router limit", se.Reason)
	}
}

// TestRouterParkResumeOffset: a client that dies abruptly mid-stream
// can resume through the router within the park window; the router
// reports the exact ingestion offset and the merged output matches an
// uninterrupted single-daemon run.
func TestRouterParkResumeOffset(t *testing.T) {
	cfg := testConfig()
	iq, _ := collisionTrace(t, cfg, 311, "restart")
	traces := map[string][]complex128{"restart": iq}
	baseline := singleDaemonBaseline(t, cfg, traces)

	tc := startCluster(t, 2, clusterOpts{
		routerCfg: func(c *cluster.Config) { c.ParkTimeout = 30 * time.Second },
	})

	first := tc.reconnecting("restart", cfg)
	if _, err := first.Connect(); err != nil {
		t.Fatal(err)
	}
	half := len(iq) / 2
	for off := 0; off < half; off += chaosChunk {
		end := off + chaosChunk
		if end > half {
			end = half
		}
		if err := first.WriteIQ(iq[off:end]); err != nil {
			t.Fatalf("first half write: %v", err)
		}
	}
	waitFor(t, "first half acked", func() bool { return first.Acked() == int64(half) })
	first.Abort()
	waitFor(t, "session parked", func() bool { return tc.router.ParkedCount() == 1 })

	second := tc.reconnecting("restart", cfg)
	off, err := second.Connect()
	if err != nil {
		t.Fatal(err)
	}
	if off != int64(half) {
		t.Fatalf("resume offset %d, want %d", off, half)
	}
	for pos := int(off); pos < len(iq); pos += chaosChunk {
		end := pos + chaosChunk
		if end > len(iq) {
			end = len(iq)
		}
		if err := second.WriteIQ(iq[pos:end]); err != nil {
			t.Fatalf("second half write: %v", err)
		}
	}
	if err := second.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	merged := tc.shutdownAndCollect()
	assertIdentical(t, baseline, merged)
	snap := tc.reg.Snapshot()
	if got := snap.Counters[cluster.MetricResumesTotal]; got != 1 {
		t.Errorf("%s = %d, want 1", cluster.MetricResumesTotal, got)
	}
	if got := snap.Counters[cluster.MetricSessionsTotal]; got != 1 {
		t.Errorf("%s = %d, want 1 (one routed session across two client processes)",
			cluster.MetricSessionsTotal, got)
	}
	if got := snap.Gauges[cluster.MetricSessionsParked]; got != 0 {
		t.Errorf("%s = %d after shutdown, want 0", cluster.MetricSessionsParked, got)
	}
}

// TestRouterAddRemoveBackendErrors: fleet mutation rejects duplicates
// and unknown names, and removal takes the backend out of the ring.
func TestRouterAddRemoveBackendErrors(t *testing.T) {
	tc := startCluster(t, 2, clusterOpts{})

	if err := tc.router.AddBackend(cluster.BackendSpec{Name: "shard-0", Addr: "127.0.0.1:1"}); err == nil {
		t.Error("duplicate AddBackend accepted")
	}
	if err := tc.router.RemoveBackend("nope"); err == nil {
		t.Error("RemoveBackend of unknown backend accepted")
	}
	if err := tc.router.RemoveBackend("shard-1"); err != nil {
		t.Fatalf("RemoveBackend(shard-1): %v", err)
	}
	for i := 0; i < 50; i++ {
		station := fmt.Sprintf("after-remove-%d", i)
		if got := tc.router.BackendFor(station); got != "shard-0" {
			t.Fatalf("BackendFor(%s) = %q after removal, want shard-0", station, got)
		}
	}
}

// TestRouterProbeMarksBackendDown: the health prober flips the
// cluster_backend_healthy gauge within one probe interval of a backend
// dying, and readiness degrades only when the whole fleet is gone.
func TestRouterProbeMarksBackendDown(t *testing.T) {
	tc := startCluster(t, 2, clusterOpts{
		routerCfg: func(c *cluster.Config) { c.ProbeInterval = 50 * time.Millisecond },
	})

	if err := tc.router.Ready(); err != nil {
		t.Fatalf("fresh cluster not ready: %v", err)
	}
	tc.backends[0].kill()
	waitFor(t, "probe to mark shard-0 down", func() bool {
		v, ok := vecGet(tc.reg.Snapshot().GaugeVecs[cluster.MetricBackendHealthy], "shard-0")
		return ok && v == 0
	})
	if err := tc.router.Ready(); err != nil {
		t.Errorf("router not ready with one surviving backend: %v", err)
	}

	tc.backends[1].kill()
	waitFor(t, "probe to mark shard-1 down", func() bool {
		v, ok := vecGet(tc.reg.Snapshot().GaugeVecs[cluster.MetricBackendHealthy], "shard-1")
		return ok && v == 0
	})
	waitFor(t, "readiness to degrade", func() bool { return tc.router.Ready() != nil })

	snap := tc.reg.Snapshot()
	if got, _ := vecGet(snap.CounterVecs[cluster.MetricBackendProbes], "shard-0", "fail"); got < 1 {
		t.Errorf("%s{shard-0,fail} = %d, want ≥ 1", cluster.MetricBackendProbes, got)
	}
}

// msgCounter is a slog handler that counts records by message.
type msgCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (h *msgCounter) Enabled(context.Context, slog.Level) bool { return true }

func (h *msgCounter) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	h.n[r.Message]++
	h.mu.Unlock()
	return nil
}

func (h *msgCounter) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *msgCounter) WithGroup(string) slog.Handler      { return h }

func (h *msgCounter) count(msg string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n[msg]
}

// TestRouterRetentionTrimWarnsOnce: past RetainCap every frame trims the
// oldest retained chunk. cluster_retain_trimmed counts every trimmed
// sample, but the lossy-failover warning is logged once per session,
// not once per frame.
func TestRouterRetentionTrimWarnsOnce(t *testing.T) {
	const frames = 10
	logs := &msgCounter{n: map[string]int{}}
	tc := startCluster(t, 1, clusterOpts{
		routerCfg: func(c *cluster.Config) {
			c.RetainCap = 2 * chaosChunk
			c.Log = slog.New(logs)
		},
	})
	c := helloClient(t, tc.addr, "trim", testConfig())
	if c == nil {
		t.Fatal("handshake failed")
	}
	if err := writeChunks(c, make([]complex128, frames*chaosChunk)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := logs.count("session retention trimmed (failover now lossy)"); n != 1 {
		t.Errorf("retention warning logged %d times over %d frames, want 1", n, frames)
	}
	want := int64(frames-2) * chaosChunk
	if got := tc.reg.Snapshot().Counters[cluster.MetricRetainTrimmed]; got != want {
		t.Errorf("%s = %d, want %d", cluster.MetricRetainTrimmed, got, want)
	}
}
