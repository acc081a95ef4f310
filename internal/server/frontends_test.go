package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"cic"
	"cic/internal/cluster"
	"cic/internal/server"
)

// frontEnd is one ingest front end the session-lifecycle tests run
// against: cic-gatewayd itself, or cic-routerd in front of one
// gatewayd. Both run the lifecycle in internal/server; the tests pin
// that each behaves the same at the client's side of the wire.
type frontEnd struct {
	name  string
	start func(t *testing.T, cfg server.Config) *frontRun
	// Metric names on the front end's own registry ("" where the front
	// end keeps no such metric).
	resumes, active, parked, rejected, idle, expired string
}

// frontRun is one started front end.
type frontRun struct {
	addr string
	sink *memSink
	// reg is the front end's registry; gwReg the decoding gatewayd's
	// (the same registry for a bare gatewayd).
	reg, gwReg *cic.Metrics
	front      interface {
		SessionCount() int
		Shutdown(context.Context) error
	}
}

var frontEnds = []frontEnd{
	{
		name:     "gatewayd",
		start:    startGatewayd,
		resumes:  server.MetricResumesTotal,
		active:   server.MetricSessionsActive,
		parked:   server.MetricSessionsParked,
		rejected: server.MetricHelloErrors,
		idle:     server.MetricIdleTimeouts,
		expired:  server.MetricResumesExpired,
	},
	{
		name:     "routerd",
		start:    startRouterd,
		resumes:  cluster.MetricResumesTotal,
		active:   cluster.MetricSessionsActive,
		parked:   cluster.MetricSessionsParked,
		rejected: cluster.MetricRejected,
	},
}

// startGatewayd runs cfg's lifecycle settings on a bare gatewayd.
func startGatewayd(t *testing.T, cfg server.Config) *frontRun {
	srv, addr, sink, reg := chaosServer(t, cfg)
	return &frontRun{addr: addr, sink: sink, reg: reg, gwReg: reg, front: srv}
}

// startRouterd runs cfg's lifecycle settings on a router in front of one
// default gatewayd whose records feed the router's fan-in.
func startRouterd(t *testing.T, cfg server.Config) *frontRun {
	t.Helper()
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	run := &frontRun{sink: &memSink{}, reg: cic.NewMetrics(), gwReg: cic.NewMetrics()}
	router := cluster.New(cluster.Config{
		Backends:    []cluster.BackendSpec{{Name: "gw", Addr: gwLn.Addr().String()}},
		MaxSessions: cfg.MaxSessions,
		IdleTimeout: cfg.IdleTimeout,
		ParkTimeout: cfg.ParkTimeout,
		Metrics:     run.reg,
		Sink:        server.NewFanout(run.sink),
	})
	gw := server.New(server.Config{
		Workers: 1,
		Metrics: run.gwReg,
		Sink:    server.NewFanout(router.RecordWriter()),
	})
	go gw.Serve(gwLn)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(ln)
	// Cleanups run last-in first-out: the router drains into the
	// gatewayd before the gatewayd stops.
	for _, f := range []func(context.Context) error{gw.Shutdown, router.Shutdown} {
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			f(ctx)
		})
	}
	run.addr, run.front = ln.Addr().String(), router
	return run
}

// collect shuts the front end down and returns its per-station records.
func (r *frontRun) collect(t *testing.T) map[string][]server.Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.front.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	return groupByStation(r.sink.Records(t))
}

// TestReconnectOnCloseOK: on both front ends a station that CLOSEs and
// reconnects as soon as it reads the OK is admitted again. The
// lifecycle retires a session before it OKs the CLOSE, so cic-routerd's
// one-session-per-station rule never sees the old session.
func TestReconnectOnCloseOK(t *testing.T) {
	cfg := testConfig()
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			run := fe.start(t, server.Config{})
			for i := 0; i < 50; i++ {
				c, err := server.Dial(run.addr)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Hello("again", cfg); err != nil {
					c.Abort()
					t.Fatalf("iteration %d: hello: %v", i, err)
				}
				if err := c.WriteIQ(make([]complex128, 1024)); err != nil {
					t.Fatalf("iteration %d: write: %v", i, err)
				}
				if err := c.Close(); err != nil {
					t.Fatalf("iteration %d: close: %v", i, err)
				}
			}
		})
	}
}
