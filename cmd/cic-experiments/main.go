// Command cic-experiments regenerates the evaluation figures of
// "Concurrent Interference Cancellation: Decoding Multi-Packet Collisions
// in LoRa" (SIGCOMM 2021).
//
// Every experiment is a declarative config: each committed figure has
// one under experiments/, and
//
//	cic-experiments -config experiments/<fig>.json -outdir results
//
// regenerates it. The config fixes everything that affects the result
// (channel, deployments, rates, duration, payload, seeds, receivers,
// decode workers); the flags only choose how and where it runs. Sweep
// configs expand into a deterministic deployment × rate × seed trial
// matrix executed on a bounded worker pool; -journal checkpoints
// completed trials as NDJSON so an interrupted matrix resumes without
// recomputation. See docs/EXPERIMENTS.md for the schema, journal format
// and resume semantics.
//
// Figures are written to stdout (table) or to -outdir as CSV files.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"cic/internal/eval"
	"cic/internal/experiment"
	"cic/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath = flag.String("config", "", "declarative experiment config (JSON, see experiments/)")
		journal    = flag.String("journal", "", "NDJSON trial journal for sweep configs: completed trials checkpoint here and a rerun resumes")
		stopAfter  = flag.Int("stop-after", 0, "stop a sweep cleanly after N newly executed trials (resume later from -journal)")
		trialConc  = flag.Int("trial-concurrency", 0, "sweep trial worker pool size (0 = GOMAXPROCS)")
		quiet      = flag.Bool("quiet", false, "suppress per-trial progress logging")
		outdir     = flag.String("outdir", "", "write figures as CSV files into this directory")
		svg        = flag.Bool("svg", false, "with -outdir: also write an .svg chart per figure")
		format     = flag.String("format", "table", "stdout format: table or csv")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while running")
	)
	flag.Parse()
	if *configPath == "" || flag.NArg() != 0 {
		flag.Usage()
		return fmt.Errorf("-config <experiments/*.json> is required and takes no positional arguments")
	}

	// Sweeps feed the runner's experiment_* metrics into this registry;
	// -debug-addr exposes it live (plus pprof) while long
	// experiments execute.
	reg := obs.NewRegistry()
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "cic-experiments: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics\n", *debugAddr)
	}

	figs, err := runConfig(configOptions{
		path:      *configPath,
		journal:   *journal,
		stopAfter: *stopAfter,
		trialConc: *trialConc,
		quiet:     *quiet,
		metrics:   reg,
	})
	if err != nil {
		return err
	}
	return emit(figs, *outdir, *format, *svg)
}

// configOptions carries the -config mode flags.
type configOptions struct {
	path      string
	journal   string
	stopAfter int
	trialConc int
	quiet     bool
	metrics   *obs.Registry
}

// runConfig executes a declarative experiment config: figure configs
// dispatch straight into internal/eval, sweep configs expand into a
// journaled trial matrix and aggregate to mean ± 95% CI figures.
func runConfig(o configOptions) ([]eval.Figure, error) {
	cfg, err := experiment.Load(o.path)
	if err != nil {
		return nil, err
	}

	if cfg.Kind == experiment.KindFigure {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-journal", o.journal != ""},
			{"-stop-after", o.stopAfter != 0},
			{"-trial-concurrency", o.trialConc != 0},
		} {
			if f.set {
				return nil, fmt.Errorf("%s applies only to sweep configs (%s is kind %q)", f.name, o.path, cfg.Kind)
			}
		}
		return experiment.Figures(cfg)
	}

	opts := experiment.RunnerOptions{
		JournalPath: o.journal,
		Concurrency: o.trialConc,
		StopAfter:   o.stopAfter,
		Metrics:     o.metrics,
	}
	if !o.quiet {
		opts.Log = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	// SIGINT/SIGTERM cancel the matrix cleanly: completed trials are
	// already journaled, so the same invocation rerun resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := experiment.Run(ctx, cfg, opts)
	if err != nil {
		return nil, err
	}
	if res.Stopped {
		fmt.Fprintf(os.Stderr, "cic-experiments: stopped after %d trials; rerun with the same -config and -journal to resume\n", res.Executed)
		return nil, nil
	}
	return experiment.Aggregate(cfg, res.Results)
}

func emit(figs []eval.Figure, outdir, format string, svg bool) error {
	if outdir != "" {
		if err := os.MkdirAll(outdir, 0o755); err != nil {
			return err
		}
		for _, f := range figs {
			path := filepath.Join(outdir, f.ID+".csv")
			out, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := f.WriteCSV(out); err != nil {
				out.Close()
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			fmt.Println("wrote", path)
			if svg {
				spath := filepath.Join(outdir, f.ID+".svg")
				sout, err := os.Create(spath)
				if err != nil {
					return err
				}
				if err := f.WriteSVG(sout); err != nil {
					sout.Close()
					return err
				}
				if err := sout.Close(); err != nil {
					return err
				}
				fmt.Println("wrote", spath)
			}
		}
		return nil
	}
	for _, f := range figs {
		var err error
		if format == "csv" {
			err = f.WriteCSV(os.Stdout)
		} else {
			err = f.WriteTable(os.Stdout)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
