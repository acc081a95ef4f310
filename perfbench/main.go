// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates seeded D1 collision traces in memory, streams
// them over the v2 wire protocol into the real cic-gatewayd (and, for the
// routed workload, cic-routerd) binaries, scores the published NDJSON
// records against ground truth and against an in-process cic.Gateway
// decode of the same trace, and prints one JSON result line.
//
// Run it through run.sh, which builds it and the daemons first:
//
//	bash perfbench/run.sh --workload realtime --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the separate
// traced run and reports the per-layer metrics. README.md in this
// directory lists every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run())
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: dense-replay, realtime or sparse-routed")
		seed    = flag.Int64("seed", 1, "seed of the generated traces")
		seconds = flag.Float64("seconds", 30, "length of the measured window in seconds")
		traced  = flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
		binDir  = flag.String("bin", "", "directory holding the cic-gatewayd and cic-routerd binaries")
		workDir = flag.String("work", "", "directory for daemon logs, address files and span output")
	)
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail(err)
	}
	if *binDir == "" || *workDir == "" {
		return fail(fmt.Errorf("-bin and -work are required (run through run.sh)"))
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	// perfbench's own parallelism is fixed too: two sending goroutines at
	// most, plus subscribers and the reference decode.
	runtime.GOMAXPROCS(2)

	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		return fail(err)
	}
	b := &bench{w: w, seed: *seed, seconds: *seconds, binDir: *binDir, dir: dir}
	var res *result
	if *traced == 1 {
		b.spanDir = filepath.Join(*workDir, "spans")
		res, err = b.tracedRun()
	} else {
		res, err = b.measuredRun()
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w (logs in %s)", w.name, err, dir))
	}
	printSummary(res)
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %d of %d operations failed (logs in %s)\n", res.Failed, res.Attempted, dir)
		return 1
	}
	_ = os.RemoveAll(dir)
	return 0
}

// printSummary writes the metrics to stderr, one per line, by name.
func printSummary(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
