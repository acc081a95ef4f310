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
//	             [-debug-addr addr] [-addr-file path]
//	             [-log-level level] [-log-format text|json]
//	             [-flight N] [-station-series N]
//
// The debug endpoint (-debug-addr) serves /metrics (JSON, or Prometheus
// text exposition under content negotiation), /healthz (liveness),
// /readyz (readiness = admission control not shedding), /debug/flight
// (the decode flight recorder) and /debug/pprof.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting,
// flushes every session's Gateway so no fully-buffered packet is lost,
// publishes the results, and exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"cic"
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
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /healthz, /readyz, /debug/flight and /debug/pprof on this address")
		addrFile    = flag.String("addr-file", "", "write the bound ingestion and pub addresses (one per line) to this file once listening")
		quiet       = flag.Bool("quiet", false, "suppress per-connection logging")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", `log encoding: "text" or "json" (structured NDJSON)`)
		flightSize  = flag.Int("flight", 1024, "decode flight-recorder capacity in events (0 = disabled)")
		stationCap  = flag.Int("station-series", 0, "max live stations per labeled metric family (0 = default cap)")
	)
	flag.Parse()

	d, err := server.NewDaemon("cic-gatewayd", *out, *logLevel, *logFormat, *quiet)
	if err != nil {
		return err
	}
	if *flightSize > 0 {
		d.Flight = cic.NewFlightRecorder(*flightSize)
	}
	srv := server.New(server.Config{
		MaxSessions:      *maxSessions,
		MemoryBudget:     *memBudget,
		IdleTimeout:      *idleTimeout,
		ParkTimeout:      *parkTimeout,
		DecodeTimeout:    *decodeTO,
		Workers:          *workers,
		Metrics:          d.Metrics,
		Sink:             d.Sink,
		Log:              d.Log,
		Flight:           d.Flight,
		MaxStationSeries: *stationCap,
	})
	return d.Run(srv, server.Listeners{Listen: *listen, Pub: *pub, Debug: *debugAddr, AddrFile: *addrFile},
		func(addr net.Addr) string { return fmt.Sprintf("ingesting on %s", addr) })
}
