package server_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cic"
	"cic/internal/fault"
	"cic/internal/obs"
	"cic/internal/server"
)

// chaosChunk is the IQ chunk size the chaos clients stream with; one
// frame is chaosChunk*8+5 bytes on the wire, so the fault offsets below
// land mid-stream.
const chaosChunk = 8192

// runStations streams each station's collision trace through clients
// built by mkClient (nil on construction failure). Every station must
// close cleanly.
func runStations(t *testing.T, traces map[string][]complex128,
	mkClient func(station string) chaosClient) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, len(traces))
	for station, iq := range traces {
		wg.Add(1)
		go func(station string, iq []complex128) {
			defer wg.Done()
			c := mkClient(station)
			if c == nil {
				errc <- fmt.Errorf("%s: client construction failed", station)
				return
			}
			for off := 0; off < len(iq); off += chaosChunk {
				end := off + chaosChunk
				if end > len(iq) {
					end = len(iq)
				}
				if err := c.WriteIQ(iq[off:end]); err != nil {
					errc <- fmt.Errorf("%s write: %w", station, err)
					return
				}
			}
			if err := c.Close(); err != nil {
				errc <- fmt.Errorf("%s close: %w", station, err)
			}
		}(station, iq)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// chaosClient is the common surface of Client and ReconnectingClient
// used by runStations.
type chaosClient interface {
	WriteIQ([]complex128) error
	Close() error
}

// helloClient dials and handshakes a plain v1 client, nil on failure.
func helloClient(t *testing.T, addr, station string, cfg cic.Config) chaosClient {
	c, err := server.Dial(addr)
	if err != nil {
		t.Errorf("%s dial: %v", station, err)
		return nil
	}
	if err := c.Hello(station, cfg); err != nil {
		t.Errorf("%s hello: %v", station, err)
		return nil
	}
	return c
}

// groupByStation splits sink records per station, preserving order.
func groupByStation(recs []server.Record) map[string][]server.Record {
	out := map[string][]server.Record{}
	for _, r := range recs {
		out[r.Station] = append(out[r.Station], r)
	}
	return out
}

// assertIdentical compares two runs' per-station record sequences
// field-by-field, ignoring only the server-assigned session id.
func assertIdentical(t *testing.T, want, got map[string][]server.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("records from %d stations, want %d", len(got), len(want))
	}
	for station, w := range want {
		g := got[station]
		if len(g) != len(w) {
			t.Fatalf("%s: %d records, want %d\n got: %+v\nwant: %+v", station, len(g), len(w), g, w)
		}
		for i := range w {
			a, b := g[i], w[i]
			a.Session, b.Session = 0, 0
			if a != b {
				t.Errorf("%s: record %d differs under faults:\n got %+v\nwant %+v", station, i, a, b)
			}
		}
	}
}

// assertMatchesReceiver checks that the daemon publishes, for every
// station, exactly what an in-process cic.Receiver decodes from the same
// trace: the same packets in the same order, with equal Start, OK and
// Payload.
func assertMatchesReceiver(t *testing.T, cfg cic.Config, traces map[string][]complex128, got map[string][]server.Record) {
	t.Helper()
	rx, err := cic.NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for station, iq := range traces {
		want, err := rx.DecodeBuffer(iq)
		if err != nil {
			t.Fatalf("%s: in-process decode: %v", station, err)
		}
		g := got[station]
		if len(g) != len(want) {
			t.Fatalf("%s: daemon published %d records, in-process decode has %d", station, len(g), len(want))
		}
		for i, p := range want {
			if g[i].Start != p.Start || g[i].OK != p.OK || g[i].Payload != hex.EncodeToString(p.Payload) {
				t.Errorf("%s: record %d = {Start:%d OK:%v Payload:%s}, in-process {Start:%d OK:%v Payload:%x}",
					station, i, g[i].Start, g[i].OK, g[i].Payload, p.Start, p.OK, p.Payload)
			}
		}
	}
}

// chaosServer starts a server publishing into a fresh memSink.
func chaosServer(t *testing.T, cfg server.Config) (*server.Server, string, *memSink, *cic.Metrics) {
	t.Helper()
	sink := &memSink{}
	reg := cic.NewMetrics()
	cfg.Workers = 1
	cfg.Metrics = reg
	cfg.Sink = server.NewFanout(sink)
	srv, addr := startServer(t, cfg)
	return srv, addr, sink, reg
}

// shutdownAndCollect drains the server and returns the per-station
// record groups.
func shutdownAndCollect(t *testing.T, srv *server.Server, sink *memSink) map[string][]server.Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return groupByStation(sink.Records(t))
}

// TestChaosResumeByteIdentical is the chaos acceptance test: eight
// concurrent resumable sessions stream under a seeded fault schedule
// that forcibly drops every session's connection at least once
// (plus stalls and partial writes); after reconnect + resume the
// published NDJSON must be identical, record for record, to a
// fault-free baseline — no gaps, no duplicates, air-time order intact.
// The baseline itself must equal an in-process cic.Receiver decode of
// each trace, so the daemon path publishes what the library decodes.
func TestChaosResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e in -short mode")
	}
	cfg := testConfig()
	const sessions = 8
	for _, seed := range []int64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			traces := make(map[string][]complex128, sessions)
			for i := 0; i < sessions; i++ {
				station := fmt.Sprintf("chaos-%d-%d", seed, i)
				iq, _ := collisionTrace(t, cfg, seed*100+int64(i), station)
				traces[station] = iq
			}

			// Fault-free baseline over the plain v1 protocol.
			baseSrv, baseAddr, baseSink, _ := chaosServer(t, server.Config{})
			runStations(t, traces, func(station string) chaosClient {
				return helloClient(t, baseAddr, station, cfg)
			})
			baseline := shutdownAndCollect(t, baseSrv, baseSink)
			for station := range traces {
				if len(baseline[station]) == 0 {
					t.Fatalf("baseline: no records for %s", station)
				}
			}
			assertMatchesReceiver(t, cfg, traces, baseline)

			// Faulted run: the first two connections of every station die
			// at fixed byte offsets (after a stall and a partial write);
			// later attempts are clean so the run terminates.
			srv, addr, sink, reg := chaosServer(t, server.Config{
				ParkTimeout: 30 * time.Second,
			})
			clients := make(map[string]*server.ReconnectingClient, sessions)
			var mu sync.Mutex
			runStations(t, traces, func(station string) chaosClient {
				var attempts atomic.Int64
				rc := server.NewReconnectingClient(server.ReconnectOptions{
					Station:     station,
					Config:      cfg,
					Seed:        seed,
					MaxAttempts: 20,
					BaseBackoff: 10 * time.Millisecond,
					Dial: func() (net.Conn, error) {
						conn, err := net.Dial("tcp", addr)
						if err != nil {
							return nil, err
						}
						var sched fault.Schedule
						switch attempts.Add(1) - 1 {
						case 0:
							sched.Write = []fault.Event{
								{Kind: fault.KindPartial, Offset: 8 << 10},
								{Kind: fault.KindStall, Offset: 16 << 10, Delay: 10 * time.Millisecond},
								{Kind: fault.KindDrop, Offset: 64 << 10},
							}
						case 1:
							sched.Write = []fault.Event{{Kind: fault.KindDrop, Offset: 128 << 10}}
						default:
							return conn, nil
						}
						return fault.WrapConn(conn, sched, nil), nil
					},
				})
				mu.Lock()
				clients[station] = rc
				mu.Unlock()
				return rc
			})
			for station, rc := range clients {
				if rc.Reconnects() < 1 {
					t.Errorf("%s: %d reconnects, want ≥ 1 forced disconnect", station, rc.Reconnects())
				}
			}
			faulted := shutdownAndCollect(t, srv, sink)
			assertIdentical(t, baseline, faulted)

			snap := reg.Snapshot()
			if got := snap.Counters[server.MetricResumesTotal]; got < sessions {
				t.Errorf("%s = %d, want ≥ %d", server.MetricResumesTotal, got, sessions)
			}
			if got := snap.Counters[server.MetricResumeAcks]; got == 0 {
				t.Errorf("%s = 0, want > 0", server.MetricResumeAcks)
			}
			if got := snap.Gauges[server.MetricSessionsParked]; got != 0 {
				t.Errorf("%s = %d after shutdown, want 0", server.MetricSessionsParked, got)
			}
		})
	}
}

// TestChaosWorkerPanicIsolated injects a panic into one session's
// decode worker (via the interceptor hook) and asserts blast-radius
// containment: the poisoned session fails with an ERROR frame, the
// healthy concurrent session completes with full output, the recovery
// is counted, and the daemon still accepts new sessions.
func TestChaosWorkerPanicIsolated(t *testing.T) {
	cfg := testConfig()
	marker := []byte("poison-pkt")
	srv, addr, sink, reg := chaosServer(t, server.Config{
		GatewayOptions: []cic.Option{
			cic.WithDecodeInterceptor(func(p cic.Packet) cic.Packet {
				if bytes.Contains(p.Payload, marker) {
					panic("injected decode panic")
				}
				return p
			}),
		},
	})

	healthyIQ, healthyPayloads := collisionTrace(t, cfg, 41, "healthy")
	// The trace's payloads are "<tag>-pkt-…", so tag "poison" embeds the
	// marker in every packet of this session.
	poisonIQ, _ := collisionTrace(t, cfg, 42, "poison")

	var wg sync.WaitGroup
	wg.Add(1)
	healthyErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(addr)
		if err == nil {
			err = c.Hello("healthy", cfg)
		}
		if err == nil {
			err = c.WriteIQ(healthyIQ)
		}
		if err == nil {
			err = c.Close()
		}
		healthyErr <- err
	}()

	// The poisoned session: stream the trace, then keep pushing quiet
	// samples until the worker panic fails the session — the server must
	// answer with an ERROR frame (or kill the connection), never crash.
	pc, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Hello("poison", cfg); err != nil {
		t.Fatal(err)
	}
	// A detected packet dispatches to a decode worker only once the
	// maximum packet span is buffered past it, so keep the quiet stream
	// flowing well beyond that point.
	werr := pc.WriteIQ(poisonIQ)
	quiet := make([]complex128, chaosChunk)
	for i := 0; i < 1000 && werr == nil; i++ {
		werr = pc.WriteIQ(quiet)
		time.Sleep(time.Millisecond)
	}
	if werr == nil {
		t.Fatal("poisoned session never failed: worker panic not propagated")
	}
	t.Logf("poisoned session failed as expected: %v", werr)
	pc.Abort()

	wg.Wait()
	if err := <-healthyErr; err != nil {
		t.Fatalf("healthy session: %v", err)
	}

	// The daemon survived: panic counted, and a fresh session still works.
	snap := reg.Snapshot()
	if got := snap.Counters[server.MetricPanicsRecovered]; got < 1 {
		t.Errorf("%s = %d, want ≥ 1", server.MetricPanicsRecovered, got)
	}
	if got := snap.Counters[obs.MetricWorkerPanics]; got < 1 {
		t.Errorf("%s = %d, want ≥ 1", obs.MetricWorkerPanics, got)
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatalf("daemon unreachable after panic: %v", err)
	}
	if err := c.Hello("aftermath", cfg); err != nil {
		t.Fatalf("daemon rejects sessions after panic: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("aftermath close: %v", err)
	}

	recs := shutdownAndCollect(t, srv, sink)["healthy"]
	var ok int
	for _, r := range recs {
		if r.OK {
			ok++
		}
	}
	if ok != len(healthyPayloads) {
		t.Errorf("healthy session published %d verified packets, want %d", ok, len(healthyPayloads))
	}
}

// TestChaosStagePanicIsolated injects a panic into one session's header
// stage, on the Gateway's stage goroutine (via a tracer that panics on
// that session's header event), and asserts the same containment as for
// a worker panic: the poisoned session fails, the healthy concurrent
// session publishes every packet, the recovery is counted as an ingest
// panic rather than a worker panic, and the daemon keeps serving.
func TestChaosStagePanicIsolated(t *testing.T) {
	cfg := testConfig()
	sym := int64(cfg.SamplesPerSymbol())
	// The healthy trace's packets start 0, 13 and 26 symbols into its
	// stream; the poisoned session's only packet starts 6 symbols in.
	poisonStart := 6*sym + 55
	srv, addr, sink, reg := chaosServer(t, server.Config{
		GatewayOptions: []cic.Option{
			cic.WithTracer(func(ev cic.Event) {
				if ev.Kind == cic.EventHeader && ev.Start > poisonStart-3*sym && ev.Start < poisonStart+3*sym {
					panic("injected header-stage panic")
				}
			}),
		},
	})

	healthyIQ, healthyPayloads := collisionTrace(t, cfg, 41, "healthy")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: []byte("poison-pkt"), StartSample: 4096, SNR: 25, CFO: 900},
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	// A simulated trace starts at its first packet.
	poisonIQ := append(make([]complex128, poisonStart), cic.Samples(src)...)

	healthyErr := make(chan error, 1)
	go func() {
		c, err := server.Dial(addr)
		if err == nil {
			err = c.Hello("healthy", cfg)
		}
		if err == nil {
			err = c.WriteIQ(healthyIQ)
		}
		if err == nil {
			err = c.Close()
		}
		healthyErr <- err
	}()

	pc, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := pc.Hello("poison", cfg); err != nil {
		t.Fatal(err)
	}
	werr := pc.WriteIQ(poisonIQ)
	quiet := make([]complex128, chaosChunk)
	for i := 0; i < 1000 && werr == nil; i++ {
		werr = pc.WriteIQ(quiet)
		time.Sleep(time.Millisecond)
	}
	if werr == nil {
		t.Fatal("poisoned session never failed: stage panic not propagated")
	}
	t.Logf("poisoned session failed as expected: %v", werr)
	pc.Abort()

	if err := <-healthyErr; err != nil {
		t.Fatalf("healthy session: %v", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[server.MetricPanicsRecovered]; got < 1 {
		t.Errorf("%s = %d, want ≥ 1", server.MetricPanicsRecovered, got)
	}
	if got := snap.Counters[obs.MetricWorkerPanics]; got != 0 {
		t.Errorf("%s = %d, want 0 (the panic was not on a worker)", obs.MetricWorkerPanics, got)
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatalf("daemon unreachable after panic: %v", err)
	}
	if err := c.Hello("aftermath", cfg); err != nil {
		t.Fatalf("daemon rejects sessions after panic: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("aftermath close: %v", err)
	}

	recs := shutdownAndCollect(t, srv, sink)["healthy"]
	ok := 0
	for _, r := range recs {
		if r.OK {
			ok++
		}
	}
	if ok != len(healthyPayloads) {
		t.Errorf("healthy session published %d verified packets, want %d", ok, len(healthyPayloads))
	}
}

// TestChaosProcessRestartResume models a front-end process restart (the
// scripts/smoke.sh scenario): the first client streams half the capture
// and dies abruptly; a brand-new client resumes the same station within
// the park window, learns the server's ingestion offset from Connect,
// skips that prefix, and streams the rest. The output must match an
// uninterrupted baseline.
func TestChaosProcessRestartResume(t *testing.T) {
	cfg := testConfig()
	iq, _ := collisionTrace(t, cfg, 77, "restart")
	traces := map[string][]complex128{"restart": iq}

	baseSrv, baseAddr, baseSink, _ := chaosServer(t, server.Config{})
	runStations(t, traces, func(station string) chaosClient {
		return helloClient(t, baseAddr, station, cfg)
	})
	baseline := shutdownAndCollect(t, baseSrv, baseSink)

	srv, addr, sink, reg := chaosServer(t, server.Config{ParkTimeout: 30 * time.Second})

	// First incarnation: half the capture, then an abrupt death.
	first := server.NewReconnectingClient(server.ReconnectOptions{
		Station: "restart", Config: cfg, Addr: addr,
	})
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
	// Abrupt death: the server must park the session with everything it
	// ingested. ACKs lag writes, so wait until the server has
	// acknowledged the full half before killing the process — the test
	// then knows exactly which resume offset to expect.
	waitFor(t, "first half acked", func() bool { return first.Acked() == int64(half) })
	first.Abort()
	waitFor(t, "session parked", func() bool { return srv.ParkedCount() == 1 })

	// Second incarnation: a fresh client process resumes the station.
	second := server.NewReconnectingClient(server.ReconnectOptions{
		Station: "restart", Config: cfg, Addr: addr,
	})
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

	faulted := shutdownAndCollect(t, srv, sink)
	assertIdentical(t, baseline, faulted)
	snap := reg.Snapshot()
	if got := snap.Counters[server.MetricResumesTotal]; got != 1 {
		t.Errorf("%s = %d, want 1", server.MetricResumesTotal, got)
	}
	if got := snap.Counters[server.MetricSessionsTotal]; got != 1 {
		t.Errorf("%s = %d, want 1 (one session across two processes)", server.MetricSessionsTotal, got)
	}
}

// TestChaosOverloadRetryAfter asserts the structured overload
// rejection: with a full daemon the handshake error surfaces as a
// *ServerError with the overload code and a retry-after hint, and is
// counted on server_overload_rejected.
func TestChaosOverloadRetryAfter(t *testing.T) {
	cfg := testConfig()
	_, addr, _, reg := chaosServer(t, server.Config{MaxSessions: 1})

	hold, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Abort()
	if err := hold.Hello("holder", cfg); err != nil {
		t.Fatal(err)
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	err = c.Hello("rejected", cfg)
	if err == nil {
		t.Fatal("second session admitted past MaxSessions=1")
	}
	var se *server.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("rejection not a structured *ServerError: %v", err)
	}
	if se.Code != server.ErrCodeOverload || !se.Temporary() {
		t.Errorf("rejection code 0x%02x, want overload", se.Code)
	}
	if se.RetryAfter <= 0 {
		t.Errorf("retry-after hint %v, want > 0", se.RetryAfter)
	}
	if !strings.Contains(se.Reason, "session limit") {
		t.Errorf("reason %q does not name the limit", se.Reason)
	}
	if got := reg.Snapshot().Counters[server.MetricOverloadRejected]; got != 1 {
		t.Errorf("%s = %d, want 1", server.MetricOverloadRejected, got)
	}
}
