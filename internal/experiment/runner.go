package experiment

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"

	"cic/internal/obs"
)

// RunnerOptions parameterise one invocation of a sweep. Everything here
// is operational (where to journal, how wide to fan out) — nothing
// affects trial results, which depend only on the config.
type RunnerOptions struct {
	// JournalPath is the NDJSON checkpoint file. Completed trials found
	// there (same config SHA) are not recomputed. Empty disables
	// journaling (every trial recomputes).
	JournalPath string
	// Concurrency bounds the trial worker pool (0 = GOMAXPROCS).
	Concurrency int
	// StopAfter, when positive, stops the run cleanly after that many
	// newly executed trials — the deterministic stand-in for "killed
	// mid-matrix" in resume tests; the return signals the matrix is
	// incomplete.
	StopAfter int
	// Metrics, when non-nil, receives the experiment_* metrics.
	Metrics *obs.Registry
	// Log, when non-nil, receives per-trial progress.
	Log *slog.Logger
}

// RunResult is a sweep invocation's outcome.
type RunResult struct {
	// Results maps trial key → journaled result for every trial of the
	// matrix that has completed (resumed or executed this run).
	Results map[string]TrialResult
	// Executed and Resumed partition the completed trials.
	Executed int
	Resumed  int
	// Stopped reports a clean StopAfter exit with trials remaining.
	Stopped bool
}

// Run executes a sweep config's trial matrix: journal-backed, bounded
// concurrency, order-independent. On error the journal still holds every
// trial completed before the failure, so a rerun resumes.
func Run(ctx context.Context, cfg *Config, opts RunnerOptions) (*RunResult, error) {
	if cfg.Kind != KindSweep {
		return nil, fmt.Errorf("experiment: Run wants a %q config, got %q", KindSweep, cfg.Kind)
	}
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}

	sha := cfg.SHA()
	trials := cfg.Trials()
	done := map[string]TrialResult{}
	var journal *Journal
	if opts.JournalPath != "" {
		var err error
		done, err = ReadJournal(opts.JournalPath, sha)
		if err != nil {
			return nil, err
		}
		journal, err = OpenJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
	}

	var (
		planned   *obs.Gauge
		resumed   *obs.Counter
		completed *obs.CounterVec
		failed    *obs.Counter
		trialSec  *obs.Histogram
		offered   *obs.Counter
		decoded   *obs.CounterVec
	)
	if m := opts.Metrics; m != nil {
		planned = m.Gauge(MetricTrialsPlanned)
		resumed = m.Counter(MetricTrialsResumed)
		completed = m.CounterVec(MetricTrialsCompleted, []string{"deployment"}, 0)
		failed = m.Counter(MetricTrialsFailed)
		trialSec = m.Histogram(MetricTrialSeconds, obs.DurationBuckets)
		offered = m.Counter(MetricPacketsOffered)
		decoded = m.CounterVec(MetricPacketsDecoded, []string{"receiver"}, receiverSeriesLimit)
	}
	if planned != nil {
		planned.Set(int64(len(trials)))
	}

	var pending []Trial
	for _, t := range trials {
		if _, ok := done[t.Key]; ok {
			if resumed != nil {
				resumed.Inc()
			}
			continue
		}
		pending = append(pending, t)
	}
	res := &RunResult{Results: done, Resumed: len(done)}
	log.Info("experiment start",
		"name", cfg.Name, "config_sha", sha[:12],
		"trials", len(trials), "resumed", len(done), "pending", len(pending))
	if len(pending) == 0 {
		return res, nil
	}

	workers := opts.Concurrency
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	var (
		mu       sync.Mutex // guards res.Results / res.Executed
		firstErr error
		claimed  atomic.Int64
		wg       sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan Trial)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range work {
				if ctx.Err() != nil {
					continue // drain without executing
				}
				if opts.StopAfter > 0 && claimed.Add(1) > int64(opts.StopAfter) {
					mu.Lock()
					res.Stopped = true
					mu.Unlock()
					cancel()
					continue
				}
				begin := obs.Now()
				scores, err := runTrial(cfg, t)
				elapsed := obs.Since(begin)
				if err != nil {
					if failed != nil {
						failed.Inc()
					}
					log.Error("trial failed", "trial", t.Key, "err", err)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					cancel()
					continue
				}
				tr := TrialResult{
					ConfigSHA: sha,
					Name:      cfg.Name,
					Key:       t.Key,
					Seed:      t.Seed,
					Receivers: scores,
					ElapsedMS: float64(elapsed.Milliseconds()),
				}
				if journal != nil {
					if jerr := journal.Append(tr); jerr != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = jerr
						}
						mu.Unlock()
						cancel()
						continue
					}
				}
				observeTrial(tr, t, completed, trialSec, offered, decoded, elapsed.Seconds())
				logTrial(log, cfg, tr, elapsed.Seconds())
				mu.Lock()
				res.Results[t.Key] = tr
				res.Executed++
				mu.Unlock()
			}
		}()
	}
	for _, t := range pending {
		work <- t
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil && !res.Stopped {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	log.Info("experiment done",
		"name", cfg.Name, "executed", res.Executed, "resumed", res.Resumed,
		"stopped", res.Stopped)
	return res, nil
}

// observeTrial publishes one executed trial's metrics (all receivers nil
// when the run is unobserved).
func observeTrial(tr TrialResult, t Trial, completed *obs.CounterVec, trialSec *obs.Histogram, offered *obs.Counter, decoded *obs.CounterVec, seconds float64) {
	if completed == nil {
		return
	}
	completed.With(t.Spec.Base).Inc()
	trialSec.Observe(seconds)
	for name, sc := range tr.Receivers {
		decoded.With(name).Add(int64(sc.Decoded))
		if name == "CIC" {
			offered.Add(int64(sc.Offered))
		}
	}
}

// logTrial emits one progress line, leading with the receiver under study.
func logTrial(log *slog.Logger, cfg *Config, tr TrialResult, seconds float64) {
	attrs := []any{"trial", tr.Key, "seconds", fmt.Sprintf("%.2f", seconds)}
	if cic, ok := tr.Receivers["CIC"]; ok {
		attrs = append(attrs, "offered", cic.Offered)
		if cfg.Metric == MetricDetection {
			attrs = append(attrs, "cic_detection", fmt.Sprintf("%.3f", cic.DetectionRate))
		} else {
			attrs = append(attrs, "cic_prr", fmt.Sprintf("%.3f", cic.PRR))
		}
	}
	log.Info("trial complete", attrs...)
}
