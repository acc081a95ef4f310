package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cic"
)

// Daemon is the process scaffold cic-gatewayd and cic-routerd share: the
// -out NDJSON sink, the structured logger, and (in Run) the listeners,
// the debug endpoint, the addr-file and the SIGINT/SIGTERM drain.
type Daemon struct {
	// Name prefixes every stderr line ("cic-gatewayd").
	Name    string
	Metrics *cic.Metrics
	// Sink writes to the -out destination; Run closes it after the drain.
	Sink *Fanout
	// Log is the -log-level / -log-format logger (nil under -quiet).
	Log *slog.Logger
	// Flight, when set, is served at /debug/flight.
	Flight *cic.FlightRecorder

	out *os.File
}

// Service is what a Daemon runs: a *Server or a cluster router.
type Service interface {
	Serve(net.Listener) error
	ServePub(net.Listener) error
	Ready() error
	Shutdown(context.Context) error
}

// Listeners are the -listen, -pub, -debug-addr and -addr-file values.
type Listeners struct {
	Listen, Pub, Debug, AddrFile string
}

// NewDaemon opens the -out destination ("-" for stdout, a file path, or
// "" for none) and builds the logger from -log-level, -log-format and
// -quiet.
func NewDaemon(name, out, logLevel, logFormat string, quiet bool) (*Daemon, error) {
	d := &Daemon{Name: name, Metrics: cic.NewMetrics()}
	var writers []io.Writer
	switch out {
	case "":
	case "-":
		writers = append(writers, os.Stdout)
	default:
		f, err := os.Create(out)
		if err != nil {
			return nil, err
		}
		d.out = f
		writers = append(writers, f)
	}
	d.Sink = NewFanout(writers...)
	log, err := buildLogger(logLevel, logFormat, quiet)
	if err != nil {
		d.closeOut()
		return nil, err
	}
	d.Log = log
	return d, nil
}

func (d *Daemon) closeOut() {
	if d.out != nil {
		d.out.Close()
	}
}

// Printf writes one "name: ..." line to stderr.
func (d *Daemon) Printf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, d.Name+": "+format+"\n", args...)
}

// Run binds the listeners, serves the debug endpoint (/metrics,
// /healthz, /readyz from svc.Ready, /debug/flight, /debug/pprof) and
// writes the addr-file, prints banner(ingest address), then serves svc
// until SIGINT/SIGTERM or a listener fails, and drains: Shutdown, then
// the sink is closed.
func (d *Daemon) Run(svc Service, ls Listeners, banner func(net.Addr) string) error {
	defer d.closeOut()
	dataLn, err := net.Listen("tcp", ls.Listen)
	if err != nil {
		return err
	}
	var pubLn net.Listener
	pubAddr := ""
	if ls.Pub != "" {
		if pubLn, err = net.Listen("tcp", ls.Pub); err != nil {
			return err
		}
		pubAddr = pubLn.Addr().String()
	}
	dbgAddr := ""
	if ls.Debug != "" {
		mux := http.NewServeMux()
		mux.Handle("/", cic.DebugHandler(d.Metrics, d.Flight))
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			if err := svc.Ready(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		// Listen explicitly (rather than ListenAndServe) so a :0 debug
		// address resolves to a real port we can report in the addr-file.
		dbgLn, err := net.Listen("tcp", ls.Debug)
		if err != nil {
			return fmt.Errorf("-debug-addr: %w", err)
		}
		dbgAddr = dbgLn.Addr().String()
		go func() {
			if err := http.Serve(dbgLn, mux); err != nil {
				d.Printf("debug server: %v", err)
			}
		}()
		d.Printf("debug endpoint on http://%s/metrics", dbgAddr)
	}
	if ls.AddrFile != "" {
		if err := os.WriteFile(ls.AddrFile, []byte(dataLn.Addr().String()+"\n"+pubAddr+"\n"+dbgAddr+"\n"), 0o644); err != nil {
			return err
		}
	}
	line := banner(dataLn.Addr())
	if pubAddr != "" {
		line += ", publishing on " + pubAddr
	}
	d.Printf("%s", line)

	errc := make(chan error, 2)
	go func() { errc <- svc.Serve(dataLn) }()
	if pubLn != nil {
		go func() { errc <- svc.ServePub(pubLn) }()
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		d.Printf("%v — draining", sig)
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := d.Sink.Close(); err != nil {
		return err
	}
	d.Printf("drained")
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
