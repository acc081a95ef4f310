// Command cic-gatewayd is the CIC network ingestion daemon: it serves
// many concurrent IQ streams over TCP, runs one streaming cic.Gateway
// per connection, and publishes every decoded packet as NDJSON — to
// stdout, to a file, and to TCP subscribers. docs/SERVER.md documents
// the wire protocol and a full walkthrough.
//
// Usage:
//
//	cic-gatewayd -listen 127.0.0.1:7733 [-pub addr] [-out path|-]
//	             [-max-sessions N] [-mem-budget bytes] [-idle-timeout d]
//	             [-park-timeout d] [-decode-timeout d] [-workers N]
//	             [-debug-addr addr] [-addr-file path] [-fault-spec spec]
//	             [-log-level level] [-log-format text|json]
//	             [-flight N] [-station-series N]
//
// The debug endpoint (-debug-addr) serves /metrics (JSON, or Prometheus
// text exposition under content negotiation), /healthz (liveness),
// /readyz (readiness = admission control not shedding), /debug/flight
// (the decode flight recorder) and /debug/pprof.
//
// -fault-spec enables the development fault injector: every accepted
// ingestion connection is wrapped with a deterministic, seeded fault
// schedule (connection drops, stalls, byte corruption, partial writes
// at exact byte offsets — see internal/fault). Never set in production.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// flushes every session's Gateway so no fully-buffered packet is lost,
// publishes the results, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cic"
	"cic/internal/fault"
	"cic/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-gatewayd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:7733", "ingestion listen address")
		pub         = flag.String("pub", "", "NDJSON subscriber listen address (disabled when empty)")
		out         = flag.String("out", "-", `NDJSON output: "-" for stdout, a file path, or "" for none`)
		maxSessions = flag.Int("max-sessions", server.DefaultMaxSessions, "max concurrent ingestion sessions (-1 = unlimited)")
		memBudget   = flag.Int64("mem-budget", server.DefaultMemoryBudget, "session memory budget in bytes (-1 = unlimited)")
		idleTimeout = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "close sessions idle for this long (-1s = never)")
		parkTimeout = flag.Duration("park-timeout", server.DefaultParkTimeout, "resume window for disconnected resumable sessions (-1s = disable parking)")
		decodeTO    = flag.Duration("decode-timeout", server.DefaultDecodeTimeout, "per-IQ-frame decode admission deadline (-1s = unbounded)")
		workers     = flag.Int("workers", server.DefaultWorkers(), "decode workers per session")
		faultSpec   = flag.String("fault-spec", "", "DEV ONLY: inject deterministic connection faults, e.g. \"seed=42;every=2;drop@65536;stall@4096r:50ms\"")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/flight and /debug/pprof on this address")
		addrFile    = flag.String("addr-file", "", "write the bound ingestion and pub addresses (one per line) to this file once listening")
		quiet       = flag.Bool("quiet", false, "suppress per-connection logging")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", `log encoding: "text" or "json" (structured NDJSON)`)
		flightSize  = flag.Int("flight", 1024, "decode flight-recorder capacity in events (0 = disabled)")
		stationCap  = flag.Int("station-series", 0, "max live stations per labeled metric family (0 = default cap)")
	)
	flag.Parse()

	reg := cic.NewMetrics()
	var writers []io.Writer
	switch *out {
	case "":
	case "-":
		writers = append(writers, os.Stdout)
	default:
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		writers = append(writers, f)
	}
	sink := server.NewFanout(writers...)

	logger, err := buildLogger(*logLevel, *logFormat, *quiet)
	if err != nil {
		return err
	}
	var flight *cic.FlightRecorder
	if *flightSize > 0 {
		flight = cic.NewFlightRecorder(*flightSize)
	}
	var wrapConn func(net.Conn) net.Conn
	if *faultSpec != "" {
		ms, err := fault.ParseMultiSpec(*faultSpec)
		if err != nil {
			return fmt.Errorf("-fault-spec: %w", err)
		}
		for _, sp := range ms {
			if sp.LegName() != "client" {
				return fmt.Errorf("-fault-spec: leg %q is not a cic-gatewayd leg (the daemon only has the client leg; leg=upstream belongs to cic-routerd)", sp.LegName())
			}
		}
		spec := ms.ForLeg("client")
		faults := reg.Counter(server.MetricFaultsInjected)
		var connIdx atomic.Int64
		wrapConn = func(c net.Conn) net.Conn {
			sched := spec.Schedule(int(connIdx.Add(1) - 1))
			if len(sched.Read) == 0 && len(sched.Write) == 0 {
				return c
			}
			return fault.WrapConn(c, sched, func(fault.Event) { faults.Inc() })
		}
		fmt.Fprintf(os.Stderr, "cic-gatewayd: FAULT INJECTION ACTIVE (%s) — dev use only\n", spec)
	}
	srv := server.New(server.Config{
		MaxSessions:      *maxSessions,
		MemoryBudget:     *memBudget,
		IdleTimeout:      *idleTimeout,
		ParkTimeout:      *parkTimeout,
		DecodeTimeout:    *decodeTO,
		Workers:          *workers,
		Metrics:          reg,
		Sink:             sink,
		WrapConn:         wrapConn,
		Log:              logger,
		Flight:           flight,
		MaxStationSeries: *stationCap,
	})

	dataLn, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	var pubLn net.Listener
	pubAddr := ""
	if *pub != "" {
		if pubLn, err = net.Listen("tcp", *pub); err != nil {
			return err
		}
		pubAddr = pubLn.Addr().String()
	}
	dbgAddr := ""
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", cic.DebugHandler(reg, flight))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			if err := srv.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		// Listen explicitly (rather than ListenAndServe) so a :0 debug
		// address resolves to a real port we can report in the addr-file.
		dbgLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dbgAddr = dbgLn.Addr().String()
		go func() {
			if err := http.Serve(dbgLn, mux); err != nil {
				fmt.Fprintln(os.Stderr, "cic-gatewayd: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "cic-gatewayd: debug endpoint on http://%s/metrics\n", dbgAddr)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(dataLn.Addr().String()+"\n"+pubAddr+"\n"+dbgAddr+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "cic-gatewayd: ingesting on %s", dataLn.Addr())
	if pubAddr != "" {
		fmt.Fprintf(os.Stderr, ", publishing on %s", pubAddr)
	}
	fmt.Fprintln(os.Stderr)

	errc := make(chan error, 2)
	go func() { errc <- srv.Serve(dataLn) }()
	if pubLn != nil {
		go func() { errc <- srv.ServePub(pubLn) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cic-gatewayd: %v — draining\n", sig)
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "cic-gatewayd: drained")
	return nil
}

// buildLogger assembles the daemon's structured logger from the
// -log-level / -log-format / -quiet flags. A nil logger means silent.
func buildLogger(level, format string, quiet bool) (*slog.Logger, error) {
	if quiet {
		return nil, nil
	}
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level: unknown level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: unknown format %q (want text or json)", format)
	}
}
