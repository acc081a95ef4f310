package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"cic"
	"cic/internal/cluster"
	"cic/internal/server"
)

// bench is one invocation: a workload, a seed and a window length.
type bench struct {
	w       workload
	seed    int64
	seconds float64
	binDir  string
	dir     string // per-run directory for logs and address files
	spanDir string // traced runs write their spans here

	period  int64
	periods int // open loop: fixed by plan; closed loop: set by the run
	traces  []*trace
}

// prepare picks station ids and renders every station's period.
func (b *bench) prepare() error {
	var ids []string
	if b.w.routed {
		var err error
		if ids, err = routedStations(); err != nil {
			return err
		}
	} else {
		for i := 0; i < b.w.stations; i++ {
			ids = append(ids, fmt.Sprintf("st-%d", i))
		}
	}
	b.period, b.periods = b.w.plan(b.seconds)
	t0 := time.Now()
	traces, err := genTraces(b.w, ids, b.seed, b.period)
	if err != nil {
		return err
	}
	for _, tr := range traces {
		sort.Slice(tr.truth, func(i, j int) bool { return tr.truth[i].start < tr.truth[j].start })
	}
	b.traces = traces
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d station(s), period %d samples, generated in %v\n",
		b.w.name, b.seed, len(traces), b.period, time.Since(t0).Round(time.Millisecond))
	return nil
}

// topoRun is what one streaming run through the daemons observed.
type topoRun struct {
	periods int
	recs    map[string][]record // entry daemon's records, by station
	// Per cold spawn, from spawning the daemons to every station's HELLO
	// accepted: the wall time, and the daemons' summed CPU time.
	setup, setupCPU []float64
	// backendRecs are the backends' own records by station, collected on
	// traced routed runs to time the router hop.
	backendRecs map[string][]record
	logs        []sendLog

	windowStart   time.Duration // on the run's time base
	windowSamples int64         // all stations
	cpu0, cpu1    map[string]float64
	hwm           int64
	stats         map[string]cic.Stats // final /metrics, by daemon name
	retainPeak    int64                // samples, routed traced runs
	sessErrs      int
	placementErr  error
}

// setupSpawns is how many times a run spawns its topology cold; setup_s
// is the median CPU time of the spawns' set-up. Set-up is a few
// milliseconds of CPU-bound work (process start, NewGateway ring, plan
// and arena set-up) whose wall time moves with the host's load far more
// than its CPU time does.
const setupSpawns = 15

// stream runs the workload through freshly spawned daemons: setupSpawns
// cold spawns for setup_s, the last of which carries the measured stream.
// want is the number of records the entry daemon should publish per
// period, across all stations.
func (b *bench) stream(want int, traced bool) (*topoRun, error) {
	tr := &topoRun{}
	// Return the garbage of trace generation and the reference decode
	// before anything is timed, so perfbench's own collector stays quiet.
	debug.FreeOSMemory()
	var topo *topology
	var sessions []*session
	defer func() {
		for _, s := range sessions {
			s.conn.Close()
		}
		if topo != nil {
			topo.stop()
		}
	}()
	for i := 0; i < setupSpawns; i++ {
		t0 := time.Now()
		var err error
		if topo, err = startTopology(b.w, b.binDir, b.dir); err != nil {
			return nil, err
		}
		for _, t := range b.traces {
			s, err := openSession(topo.entry().data, t, !b.w.paced())
			if err != nil {
				return nil, err
			}
			sessions = append(sessions, s)
		}
		tr.setup = append(tr.setup, time.Since(t0).Seconds())
		cpu, err := topo.setupCPU()
		if err != nil {
			return nil, err
		}
		tr.setupCPU = append(tr.setupCPU, cpu)
		if b.w.routed {
			tr.placementErr = placement(topo, len(b.traces))
		}
		if i == setupSpawns-1 {
			break
		}
		for _, s := range sessions {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		sessions = nil
		topo.stop()
		topo = nil
	}

	// The stream's time origin leaves the subscribers a moment to attach.
	origin := time.Now().Add(50 * time.Millisecond)
	entry, err := subscribe(topo.entry().pub, origin)
	if err != nil {
		return nil, err
	}
	var backendSubs []*subscriber
	if traced && b.w.routed {
		for _, g := range topo.gateways {
			s, err := subscribe(g.pub, origin)
			if err != nil {
				return nil, err
			}
			backendSubs = append(backendSubs, s)
		}
	}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced && b.w.routed {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopPoll:
					return
				case <-tick.C:
					if s, err := topo.router.scrape(); err == nil {
						if v := s.Gauges[cluster.MetricRetainSamples]; v > tr.retainPeak {
							tr.retainPeak = v
						}
					}
				}
			}
		}()
	}

	var cpuErr error
	var windowOnce sync.Once
	openWindow := func() {
		windowOnce.Do(func() {
			tr.windowStart = time.Since(origin)
			tr.cpu0, cpuErr = topo.cpu()
		})
	}
	warmFrames := int(b.w.warm / int64(b.w.frame))
	tr.logs = make([]sendLog, len(sessions))
	periods := make([]int, len(sessions))
	closeErrs := make([]error, len(sessions))
	var wg sync.WaitGroup
	if b.w.paced() {
		// The window opens when the first post-warm-up sample is due.
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(origin.Add(time.Duration(float64(b.w.warm) / b.w.paceSps * float64(time.Second)))))
			openWindow()
		}()
	}
	time.Sleep(time.Until(origin))
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			if b.w.paced() {
				tr.logs[i] = sendPaced(s, b.periods, b.w.paceSps, origin)
				periods[i] = b.periods
			} else {
				tr.logs[i], periods[i] = sendClosed(s, warmFrames, time.Duration(b.seconds*float64(time.Second)), origin, openWindow)
			}
			if tr.logs[i].err == nil {
				closeErrs[i] = s.close()
			}
		}(i, s)
	}
	wg.Wait()
	sessions = nil // closed by their senders
	if cpuErr != nil {
		return nil, cpuErr
	}
	if tr.cpu1, err = topo.cpu(); err != nil {
		return nil, err
	}
	tr.periods = periods[0]
	for i, lg := range tr.logs {
		if lg.err != nil || closeErrs[i] != nil {
			tr.sessErrs++
			fmt.Fprintf(os.Stderr, "perfbench: station %s: send %v, close %v\n", b.traces[i].station, lg.err, closeErrs[i])
		}
		if periods[i] != tr.periods {
			return nil, fmt.Errorf("stations streamed %d and %d periods", tr.periods, periods[i])
		}
		tr.windowSamples += b.traces[i].streamSamples(tr.periods) - b.w.warm
	}
	close(stopPoll)
	pollWG.Wait()
	if tr.hwm, err = topo.hwm(); err != nil {
		return nil, err
	}
	tr.stats = map[string]cic.Stats{}
	for _, d := range topo.all() {
		if tr.stats[d.name], err = d.scrape(); err != nil {
			return nil, err
		}
	}

	recs, err := entry.finish(want*tr.periods, settleQuiet, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("subscriber: %w", err)
	}
	tr.recs = byStation(recs)
	if len(backendSubs) > 0 {
		var all []record
		for _, s := range backendSubs {
			r, err := s.finish(want*tr.periods/len(backendSubs), settleQuiet, 2*time.Second)
			if err != nil {
				return nil, fmt.Errorf("backend subscriber: %w", err)
			}
			all = append(all, r...)
		}
		tr.backendRecs = byStation(all)
	}
	return tr, nil
}

// settleQuiet is how long a record stream must stay quiet, once it holds
// every expected record, before the run stops reading it.
const settleQuiet = 250 * time.Millisecond

func byStation(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		out[r.Station] = append(out[r.Station], r)
	}
	return out
}

// placement checks from the backends' own counters that the routed
// stations landed one per backend.
func placement(topo *topology, stations int) error {
	counts := map[string]int64{}
	for _, g := range topo.gateways {
		s, err := g.scrape()
		if err != nil {
			return err
		}
		counts[g.name] = s.Counters[server.MetricSessionsTotal]
	}
	return checkPlacement(counts, stations)
}

// score is the outcome of checking a run's records.
type score struct {
	attempted, failed int
	latencies         []float64 // ms, records in the measured window
	delivered, truth  int
	lastRecord        time.Duration
}

// scoreRun checks every station's records against the reference decode
// of one period (ref, by station index) and ground truth, and computes
// each matched record's latency: arrival minus the due time of the frame
// carrying the packet's last sample. For the closed loop a frame is due
// when it was sent.
func (b *bench) scoreRun(tr *topoRun, ref [][]recordKey) score {
	var sc score
	warmFrames := int(b.w.warm / int64(b.w.frame))
	for i, t := range b.traces {
		recs := tr.recs[t.station]
		want := repeatPeriods(ref[i], t.period, tr.periods)
		got := make([]recordKey, len(recs))
		for j, r := range recs {
			got[j] = r.key()
		}
		frames := tr.periods * t.frameCount()
		sc.attempted += frames + 1 + len(want)
		sc.failed += compareRecords(want, got)
		if lg := tr.logs[i]; lg.err != nil {
			sc.failed += frames - len(lg.sent) // never sent; the session counts in sessErrs
		}

		hit := map[int64]bool{} // delivered truth instances, by period*len+index
		for _, r := range recs {
			if r.at > sc.lastRecord {
				sc.lastRecord = r.at
			}
			p := r.Start / t.period
			gi := matchTruth(t.truth, r.Start-p*t.period)
			if gi < 0 {
				continue
			}
			if delivered(r, t.truth[gi]) {
				hit[p*int64(len(t.truth))+int64(gi)] = true
			}
			f := int((p*t.period + t.truth[gi].end - 1) / int64(t.frame))
			if f < warmFrames || f >= len(tr.logs[i].sent) {
				continue
			}
			due := tr.logs[i].sent[f]
			if b.w.paced() {
				due = paceDue(f, t.frame, b.w.paceSps)
			}
			sc.latencies = append(sc.latencies, float64(r.at-due)/float64(time.Millisecond))
		}
		sc.delivered += len(hit)
		sc.truth += tr.periods * len(t.truth)
	}
	sc.failed += tr.sessErrs
	if tr.placementErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", tr.placementErr)
		sc.failed++
	}
	// Every IQ frame sent must have been ingested by a gatewayd.
	var ingested int64
	for _, g := range []string{"gw", "b0", "b1"} {
		ingested += tr.stats[g].Counters[server.MetricFramesIngested]
	}
	var frames int64
	for _, lg := range tr.logs {
		frames += int64(len(lg.sent))
	}
	if d := frames - ingested; d > 0 {
		sc.failed += int(d)
	}
	return sc
}

// measuredRun is the untraced run: it reports the end-to-end metrics.
func (b *bench) measuredRun() (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	// The reference decode runs before the daemons start, so it never
	// competes with them for the CPU.
	ref, err := decodeInProcess(b.traces, inprocMode{})
	if err != nil {
		return nil, fmt.Errorf("reference decode: %w", err)
	}
	refKeys := make([][]recordKey, len(ref.stations))
	want := 0
	for i, sp := range ref.stations {
		refKeys[i] = sp.keys()
		want += len(refKeys[i])
	}
	tr, err := b.stream(want, false)
	if err != nil {
		return nil, err
	}
	sc := b.scoreRun(tr, refKeys)
	res := &result{Attempted: sc.attempted, Failed: sc.failed, Correct: sc.failed == 0}

	msamples := float64(tr.windowSamples) / 1e6
	res.set("throughput_msps", "Msps", msamples/(sc.lastRecord-tr.windowStart).Seconds())
	res.set("latency_p50_ms", "ms", median(sc.latencies))
	var cpu float64
	for name, c := range tr.cpu1 {
		cpu += c - tr.cpu0[name]
	}
	res.set("cpu_s_per_msample", "s/Msample", cpu/msamples)
	res.set("prr", "ratio", float64(sc.delivered)/float64(sc.truth))
	res.set("setup_s", "s", median(tr.setupCPU))
	res.set("rss_peak_mb", "MB", float64(tr.hwm)/1e6)
	tail := "p99 n/a"
	if p99, err := percentile(sc.latencies, 0.99); err == nil {
		tail = fmt.Sprintf("p99 %.1f ms", p99)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d periods, %d latency samples (%s, max %.1f ms), sender late by up to %.1f ms, %d of %d packets delivered, set-up wall time %.2f ms median, %.2f ms fastest\n",
		tr.periods, len(sc.latencies), tail, maxOf(sc.latencies), maxOf(b.senderLateness(tr)), sc.delivered, sc.truth, 1e3*median(tr.setup), 1e3*slices.Min(tr.setup))
	return res, nil
}

// senderLateness is how late each open-loop frame went out, in ms (none
// for the closed loop).
func (b *bench) senderLateness(tr *topoRun) []float64 {
	if !b.w.paced() {
		return nil
	}
	var late []float64
	for _, lg := range tr.logs {
		due := make([]time.Duration, len(lg.sent))
		for f := range due {
			due[f] = paceDue(f, b.w.frame, b.w.paceSps)
		}
		late = append(late, lateness(due, lg.sent)...)
	}
	return late
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
