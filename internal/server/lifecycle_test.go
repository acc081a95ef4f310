package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cic"
	"cic/internal/server"
)

// testConfig is the PHY configuration used across the server tests:
// the paper's SF8/250k setup at CR 4/7, matching the gateway streaming
// tests' tolerance for marginal ±1-bin slips.
func testConfig() cic.Config {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	return cfg
}

// collisionTrace synthesises a deterministic three-packet collision for
// one session, returning the IQ (with a quiet tail) and the ground-truth
// payloads in air-time order.
func collisionTrace(t testing.TB, cfg cic.Config, seed int64, tag string) ([]complex128, [][]byte) {
	t.Helper()
	sym := int64(cfg.SamplesPerSymbol())
	payloads := [][]byte{
		[]byte(tag + "-pkt-alpha"),
		[]byte(tag + "-pkt-bravo"),
		[]byte(tag + "-pkt-charl"),
	}
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payloads[0], StartSample: 4096, SNR: 27, CFO: 1500},
		{Payload: payloads[1], StartSample: 4096 + 13*sym + 211, SNR: 24, CFO: -2400},
		{Payload: payloads[2], StartSample: 4096 + 26*sym + 97, SNR: 25, CFO: 800},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)
	return iq, payloads
}

// memSink is a concurrency-safe NDJSON capture for Fanout writers.
type memSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (m *memSink) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.buf.Write(p)
}

func (m *memSink) Records(t testing.TB) []server.Record {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []server.Record
	for _, line := range bytes.Split(m.buf.Bytes(), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var r server.Record
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// startServer launches a server on a loopback listener and returns it
// with its ingestion address.
func startServer(t testing.TB, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ln.Addr().String()
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSessionWriteAfterDrain: a drained session's Write must surface
// cic.ErrGatewayClosed, and Drain must be idempotent.
func TestSessionWriteAfterDrain(t *testing.T) {
	sink := server.NewFanout()
	sess, err := server.NewSession(1, server.HelloFor("wac", testConfig()), 1, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Write(make([]complex128, 1024)); err != nil {
		t.Fatalf("live Write: %v", err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := sess.Write(make([]complex128, 1024)); !errors.Is(err, cic.ErrGatewayClosed) {
		t.Fatalf("Write after Drain = %v, want cic.ErrGatewayClosed", err)
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestServerAbruptDisconnect: a client vanishing mid-packet must not
// strand the session, and every fully-buffered packet must still be
// decoded and published.
func TestServerAbruptDisconnect(t *testing.T) {
	cfg := testConfig()
	sink := &memSink{}
	reg := cic.NewMetrics()
	srv, addr := startServer(t, server.Config{
		Workers: 1, Metrics: reg, Sink: server.NewFanout(sink),
	})

	iq, payloads := collisionTrace(t, cfg, 61, "abrupt")
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Hello("abrupt", cfg); err != nil {
		t.Fatal(err)
	}
	// Stop four symbols short of the third packet's end: packets one and
	// two are fully buffered, the third is truncated mid-air.
	pktSamples, err := cfg.PacketSamples(len(payloads[2]))
	if err != nil {
		t.Fatal(err)
	}
	start3 := 4096 + 26*int64(cfg.SamplesPerSymbol()) + 97
	cut := int(start3) + pktSamples - 4*cfg.SamplesPerSymbol()
	if err := c.WriteIQ(iq[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "session teardown", func() bool { return srv.SessionCount() == 0 })

	var okPayloads []string
	for _, r := range sink.Records(t) {
		if r.OK {
			okPayloads = append(okPayloads, r.Payload)
		}
	}
	for _, want := range payloads[:2] {
		if !contains(okPayloads, fmt.Sprintf("%x", want)) {
			t.Errorf("fully-buffered payload %q not published after abrupt disconnect (got %v)", want, okPayloads)
		}
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestServerShutdownConcurrentWrites: SIGTERM-style Shutdown while
// clients are mid-write must drain cleanly — writers see an orderly
// session end, no goroutine leaks, sessions gone.
func TestServerShutdownConcurrentWrites(t *testing.T) {
	cfg := testConfig()
	srv, addr := startServer(t, server.Config{Workers: 1, Sink: server.NewFanout()})

	const clients = 3
	started := make(chan struct{}, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Abort()
			if err := c.Hello(fmt.Sprintf("shutdown-%d", i), cfg); err != nil {
				t.Error(err)
				return
			}
			started <- struct{}{}
			chunk := make([]complex128, 8192)
			for {
				if err := c.WriteIQ(chunk); err != nil {
					return // server drained underneath us — expected
				}
			}
		}(i)
	}
	for i := 0; i < clients; i++ {
		<-started
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survive shutdown", n)
	}
}

// TestServerAdmissionLimits: the session-count and memory-budget
// limiters must reject with the reason on the wire.
func TestServerAdmissionLimits(t *testing.T) {
	cfg := testConfig()
	reg := cic.NewMetrics()
	_, addr := startServer(t, server.Config{
		Workers: 1, MaxSessions: 1, Metrics: reg, Sink: server.NewFanout(),
	})

	first, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Abort()
	if err := first.Hello("first", cfg); err != nil {
		t.Fatal(err)
	}

	second, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Abort()
	if err := second.Hello("second", cfg); err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("second Hello = %v, want session-limit rejection", err)
	}
	if got := reg.Snapshot().Counters[server.MetricSessionsRejected]; got != 1 {
		t.Fatalf("%s = %d, want 1", server.MetricSessionsRejected, got)
	}

	// A one-byte memory budget rejects everyone.
	_, tinyAddr := startServer(t, server.Config{
		Workers: 1, MemoryBudget: 1, Sink: server.NewFanout(),
	})
	c, err := server.Dial(tinyAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abort()
	if err := c.Hello("hungry", cfg); err == nil || !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("Hello under 1-byte budget = %v, want memory-budget rejection", err)
	}
}

// TestServerBadHello: on both front ends a malformed handshake draws an
// ERROR frame and one rejection tick (hello_errors on a gatewayd), not a
// hang or a panic.
func TestServerBadHello(t *testing.T) {
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			run := fe.start(t, server.Config{})

			conn, err := net.Dial("tcp", run.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := server.WriteFrame(conn, server.FrameHello, []byte("not a hello")); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			typ, body, err := server.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if typ != server.FrameError {
				t.Fatalf("reply frame 0x%02x, want ERROR", typ)
			}
			if len(body) == 0 {
				t.Fatal("empty rejection reason")
			}
			if got := run.reg.Snapshot().Counters[fe.rejected]; got != 1 {
				t.Fatalf("%s = %d, want 1", fe.rejected, got)
			}
		})
	}
}

// TestServerProbeNotCounted: a connection closed before its first byte
// (a TCP liveness probe) counts as neither a hello error nor a rejected
// session, while a connection that sends one garbage byte and closes
// still counts once on each.
func TestServerProbeNotCounted(t *testing.T) {
	srv, addr, _, reg := chaosServer(t, server.Config{})
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff}); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	// The server hangs up once it has handled the garbage byte. It
	// accepts in arrival order, so by then every probe is accepted too,
	// and Shutdown waits for every accepted connection's handler.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	for _, name := range []string{server.MetricHelloErrors, server.MetricSessionsRejected} {
		if got := counters[name]; got != 1 {
			t.Errorf("%s = %d after 8 probes and one garbage byte, want 1", name, got)
		}
	}
}

// TestServerIdleTimeout: on both front ends a session that stops sending
// frames is closed after the idle timeout (counted on a gatewayd), and
// the decoding gatewayd's session ends with it.
func TestServerIdleTimeout(t *testing.T) {
	cfg := testConfig()
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			run := fe.start(t, server.Config{IdleTimeout: 200 * time.Millisecond})

			conn, err := net.Dial("tcp", run.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			body, err := server.EncodeHello(server.HelloFor("sleepy", cfg))
			if err != nil {
				t.Fatal(err)
			}
			if err := server.WriteFrame(conn, server.FrameHello, body); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if typ, _, err := server.ReadFrame(conn); err != nil || typ != server.FrameOK {
				t.Fatalf("handshake reply: type 0x%02x err %v", typ, err)
			}

			// Send nothing; the front end must hang up on its own.
			buf := make([]byte, 1)
			if _, err := conn.Read(buf); err == nil {
				t.Fatal("expected the front end to close the idle connection")
			}
			waitFor(t, "idle teardown", func() bool {
				return run.front.SessionCount() == 0 &&
					run.gwReg.Snapshot().Gauges[server.MetricSessionsActive] == 0
			})
			if fe.idle != "" {
				if got := run.reg.Snapshot().Counters[fe.idle]; got != 1 {
					t.Fatalf("%s = %d, want 1", fe.idle, got)
				}
			}
		})
	}
}

// TestFanoutSlowSubscriberEvicted: a subscriber that never reads is
// dropped once its queue overflows, without blocking Publish.
func TestFanoutSlowSubscriberEvicted(t *testing.T) {
	sink := server.NewFanout()
	defer sink.Close()
	client, srvSide := net.Pipe() // unbuffered: the writer goroutine blocks immediately
	defer client.Close()
	sink.AddSubscriber(srvSide)
	waitFor(t, "subscriber attach", func() bool { return sink.Subscribers() == 1 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ { // > subscriberBuffer
			sink.Publish(server.Record{Seq: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}
	waitFor(t, "subscriber eviction", func() bool { return sink.Subscribers() == 0 })
}
