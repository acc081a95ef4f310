// Command cic-routerd is the CIC fleet frontend: it runs cic-gatewayd's
// client session lifecycle (the same v2 wire protocol), consistently
// hashes each station onto one of a configured set of gatewayd backends,
// and proxies the session upstream. The fleet is self-healing —
// per-backend health probes and circuit breakers, failover that replays
// a failed session onto a replacement shard via RESUME, per-shard
// overload shedding with retry-after propagation, and migration onto
// the new owner when the backend set changes. docs/SERVER.md ("Cluster
// mode") is the walkthrough.
//
// Usage:
//
//	cic-routerd -listen 127.0.0.1:7732 \
//	            -backend 127.0.0.1:7733 \
//	            -backend "addr=127.0.0.1:7743,name=b2,ready=http://127.0.0.1:9743/readyz,pub=127.0.0.1:8743" \
//	            [-pub addr] [-out path|-] [-max-sessions N]
//	            [-retain-cap samples] [-park-timeout d] [-idle-timeout d]
//	            [-probe-interval d] [-breaker-base d] [-breaker-max d]
//	            [-debug-addr addr] [-addr-file path]
//	            [-log-level level] [-log-format text|json] [-seed N]
//
// Each -backend is either a bare ingest address or a comma-separated
// k=v form with keys addr (required), name (metrics/log label), ready
// (a /readyz URL to probe; TCP dial of addr otherwise) and pub (the
// backend's NDJSON address; when set the router merges that backend's
// records into its own -out/-pub stream, deduplicated across failover).
//
// The debug endpoint serves /metrics (cluster_* families), /healthz and
// /readyz (ready = accepting, with at least one available backend and
// session capacity).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"cic/internal/cluster"
	"cic/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-routerd:", err)
		os.Exit(1)
	}
}

// backendFlags collects repeatable -backend values.
type backendFlags []cluster.BackendSpec

func (b *backendFlags) String() string { return fmt.Sprintf("%d backends", len(*b)) }

func (b *backendFlags) Set(v string) error {
	spec, err := parseBackendSpec(v)
	if err != nil {
		return err
	}
	*b = append(*b, spec)
	return nil
}

// parseBackendSpec parses one -backend value: a bare "host:port", or
// "addr=host:port[,name=...][,ready=URL][,pub=host:port]".
func parseBackendSpec(v string) (cluster.BackendSpec, error) {
	var spec cluster.BackendSpec
	if !strings.Contains(v, "=") {
		spec.Addr = strings.TrimSpace(v)
		if spec.Addr == "" {
			return spec, fmt.Errorf("empty backend address")
		}
		return spec, nil
	}
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("backend spec %q: want k=v, got %q", v, part)
		}
		switch k {
		case "addr":
			spec.Addr = val
		case "name":
			spec.Name = val
		case "ready":
			spec.ReadyURL = val
		case "pub":
			spec.PubAddr = val
		default:
			return spec, fmt.Errorf("backend spec %q: unknown key %q (want addr, name, ready or pub)", v, k)
		}
	}
	if spec.Addr == "" {
		return spec, fmt.Errorf("backend spec %q: addr= is required", v)
	}
	return spec, nil
}

func run() error {
	var backends backendFlags
	var (
		listen        = flag.String("listen", "127.0.0.1:7732", "client ingestion listen address")
		pub           = flag.String("pub", "", "merged NDJSON subscriber listen address (disabled when empty)")
		out           = flag.String("out", "-", `merged NDJSON output: "-" for stdout, a file path, or "" for none`)
		maxSessions   = flag.Int("max-sessions", server.DefaultMaxSessions, "max concurrent routed sessions, parked included (-1 = unlimited)")
		retainCap     = flag.Int64("retain-cap", cluster.DefaultRetainCap, "per-session replay retention in samples (-1 = unlimited; trimming makes failover lossy)")
		idleTimeout   = flag.Duration("idle-timeout", server.DefaultIdleTimeout, "close client sessions idle for this long (-1s = never)")
		parkTimeout   = flag.Duration("park-timeout", server.DefaultParkTimeout, "resume window for disconnected resumable sessions (-1s = disable parking)")
		probeInterval = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "backend health-probe period")
		breakerBase   = flag.Duration("breaker-base", cluster.DefaultBreakerBase, "backend circuit-breaker base open window")
		breakerMax    = flag.Duration("breaker-max", cluster.DefaultBreakerMax, "backend circuit-breaker max open window")
		closeTimeout  = flag.Duration("close-timeout", cluster.DefaultCloseTimeout, "bound on one backend drain handshake")
		seed          = flag.Int64("seed", 1, "breaker jitter seed (deterministic backoff)")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics, /healthz and /readyz on this address")
		addrFile      = flag.String("addr-file", "", "write the bound ingestion, pub and debug addresses (one per line) to this file once listening")
		quiet         = flag.Bool("quiet", false, "suppress per-session logging")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		logFormat     = flag.String("log-format", "text", `log encoding: "text" or "json" (structured NDJSON)`)
	)
	flag.Var(&backends, "backend", "backend gatewayd (repeatable): addr, or addr=...,name=...,ready=...,pub=...")
	flag.Parse()

	if len(backends) == 0 {
		return fmt.Errorf("at least one -backend is required")
	}

	d, err := server.NewDaemon("cic-routerd", *out, *logLevel, *logFormat, *quiet)
	if err != nil {
		return err
	}
	router := cluster.New(cluster.Config{
		Backends:      backends,
		MaxSessions:   *maxSessions,
		RetainCap:     *retainCap,
		IdleTimeout:   *idleTimeout,
		ParkTimeout:   *parkTimeout,
		ProbeInterval: *probeInterval,
		BreakerBase:   *breakerBase,
		BreakerMax:    *breakerMax,
		CloseTimeout:  *closeTimeout,
		Seed:          *seed,
		Metrics:       d.Metrics,
		Sink:          d.Sink,
		Log:           d.Log,
	})
	return d.Run(router, server.Listeners{Listen: *listen, Pub: *pub, Debug: *debugAddr, AddrFile: *addrFile},
		func(addr net.Addr) string {
			return fmt.Sprintf("routing on %s across %d backends", addr, len(backends))
		})
}
