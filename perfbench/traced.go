package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cic"
	"cic/internal/cluster"
	"cic/internal/phy"
	"cic/internal/server"
)

// Histogram and counter names of the decode registry (docs/OBSERVABILITY.md).
const (
	hDetect     = "stage_detect_seconds"
	hDispatch   = "stage_dispatch_seconds"
	hDemod      = "stage_demod_seconds"
	hReorder    = "stage_reorder_seconds"
	hCollisions = "collision_set_size"
)

// span is one traced interval. Spans of one packet share its trace id
// ("<station>/<packet id>"); parent names the enclosing span.
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"span"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newSpan(trace, name, parent string, start, end time.Duration) span {
	return span{Trace: trace, Name: name, Parent: parent, StartUS: us(start), EndUS: us(end)}
}

// tracedRun is the separate traced run. It reports the per-layer
// metrics, from four parts:
//
//	(a) the workload's trace, on its schedule and frame sizes, through
//	    in-process Gateways with metrics, tracer and decode interceptor
//	    attached, at GOMAXPROCS=1, one station at a time; its records are
//	    the reference the daemons' records must equal;
//	(b) per-call times of the rx, core, phy and server calls below the
//	    Gateway;
//	(c) the daemons, streamed exactly as in the measured run, with the
//	    backends' record streams subscribed too, which times the router
//	    hop; /proc and /metrics are read at the end;
//	(d) the tracing overhead: the first overheadSamples of every station,
//	    as fast as they go, alternately without and with tracing.
func (b *bench) tracedRun() (*result, error) {
	if err := b.prepare(); err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(1)
	// The daemons give every station at least one processor, so (a)
	// gives each station the one processor of its own pass.
	a, err := decodeEach(b.traces, inprocMode{paced: b.w.paced(), sps: b.w.paceSps, traced: true})
	if err == nil {
		a.overhead, err = traceOverhead(b.traces)
	}
	var pc *perCall
	if err == nil {
		pc, err = timePerCall(b.traces[0], a.stations[0].records(b.traces[0].station))
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}

	refKeys := make([][]recordKey, len(a.stations))
	want := 0
	for i, sp := range a.stations {
		refKeys[i] = sp.keys()
		want += len(refKeys[i])
	}
	tr, err := b.stream(want, true)
	if err != nil {
		return nil, err
	}
	sc := b.scoreRun(tr, refKeys)
	res := &result{Attempted: sc.attempted, Failed: sc.failed, Correct: sc.failed == 0}

	spans, err := b.layerMetrics(res, a, pc)
	if err != nil {
		return nil, err
	}
	b.daemonMetrics(res, tr)
	p99, q, _ := tailPercentile(sc.latencies, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: e2e latency over %d records; the tail is p%.4g\n", len(sc.latencies), 100*q)
	res.set("e2e.latency_p99_ms", "ms", p99)
	path, err := writeSpans(b.spanDir, fmt.Sprintf("%s-seed%d.ndjson", b.w.name, b.seed), spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return res, nil
}

// overheadSamples and overheadPairs size part (d).
const (
	overheadSamples = 1 << 20
	overheadPairs   = 2
)

// traceOverhead returns the CPU time of traced passes over untraced ones,
// minus one, from overheadPairs alternating passes over the first
// overheadSamples of every station (medians of each side).
func traceOverhead(traces []*trace) (float64, error) {
	head := make([]*trace, len(traces))
	for i, t := range traces {
		h := *t
		if n := overheadSamples / t.frame; n < len(h.frames) {
			h.frames = h.frames[:n]
		}
		head[i] = &h
	}
	var plain, traced []float64
	for i := 0; i < overheadPairs; i++ {
		for _, on := range []bool{false, true} {
			r, err := decodeInProcess(head, inprocMode{traced: on})
			if err != nil {
				return 0, err
			}
			if on {
				traced = append(traced, r.cpu)
			} else {
				plain = append(plain, r.cpu)
			}
		}
	}
	return median(traced)/median(plain) - 1, nil
}

// records converts a station's decoded packets to sink records.
func (sp *stationPass) records(station string) []server.Record {
	out := make([]server.Record, len(sp.packets))
	for i, k := range sp.keys() {
		p := sp.packets[i]
		out[i] = server.Record{Station: station, Seq: i, Start: k.Start, OK: k.OK,
			SNRdB: p.SNR, CFOHz: p.CFO, FECCorrected: k.FECCorrected, Payload: k.Payload}
	}
	return out
}

// layerMetrics derives the cic, rx, core, phy, server-call, obs and
// ledger metrics from parts (a), (b) and (d), and returns (a)'s spans.
func (b *bench) layerMetrics(res *result, a *inprocResult, pc *perCall) ([]span, error) {
	st := a.stats
	h := st.Histograms
	c := st.Counters
	cfg := benchConfig()
	pkt, err := cfg.PacketSamples(payloadLen)
	if err != nil {
		return nil, err
	}
	var samples int64
	var writeT, closeT, decodeIQ time.Duration
	writes := 0
	var holds []float64
	var spans []span
	var truth, recalled, detections, precise int
	for i, sp := range a.stations {
		t := b.traces[i]
		samples += t.period
		writeT += sp.writeTime
		closeT += sp.closeTime
		decodeIQ += sp.decodeIQ
		writes += sp.writeCalls
		// Per-packet instants from the tracer and the interceptor.
		start := map[int]int64{}
		header := map[int]time.Duration{}
		seen := map[int]bool{}
		for _, e := range sp.events {
			id := e.ev.PacketID
			switch e.ev.Kind {
			case cic.EventDetect:
				start[id] = e.ev.Start
				detections++
				if matchTruth(t.truth, e.ev.Start) >= 0 {
					precise++
				}
			case cic.EventHeader:
				header[id] = e.at
			case cic.EventEmit:
				hAt, ok := header[id]
				if !ok || seen[id] {
					continue
				}
				seen[id] = true
				trace := fmt.Sprintf("%s/%d", t.station, id)
				// The packet's last sample (all payloads are the same
				// length) and when the frame carrying it was due.
				f := int((start[id] + int64(pkt) - 1) / int64(t.frame))
				if f >= len(sp.frameIO) {
					f = len(sp.frameIO) - 1
				}
				due := sp.frameIO[f].decode
				if b.w.paced() {
					due = sp.paceOrigin + paceDue(f, t.frame, b.w.paceSps)
				}
				spans = append(spans,
					newSpan(trace, "cic.packet", "", due, e.at),
					newSpan(trace, "cic.hold", "cic.packet", due, hAt))
				holds = append(holds, float64(hAt-due)/float64(time.Millisecond))
				if done, ok := sp.workerDone[e.ev.Start]; ok && e.ev.HeaderOK {
					spans = append(spans,
						newSpan(trace, "core.payload", "cic.packet", hAt, done),
						newSpan(trace, "cic.reorder", "cic.packet", done, e.at))
				}
			}
		}
		for _, gt := range t.truth {
			truth++
			for _, s := range start {
				if d := s - gt.start; d >= -halfSymbol && d <= halfSymbol {
					recalled++
					break
				}
			}
		}
	}
	ms := float64(samples) / 1e6
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	perMs := func(name string) float64 { return h[name].Sum / ms }

	holdP50 := median(holds)
	holdP99, q, _ := tailPercentile(holds, 0.99)
	fmt.Fprintf(os.Stderr, "perfbench: cic.hold over %d packets; the tail is p%.4g\n", len(holds), 100*q)
	res.set("cic.hold_ms_p50", "ms", holdP50)
	res.set("cic.hold_ms_p99", "ms", holdP99)
	res.set("cic.write_s_per_msample", "s/Msample", writeT.Seconds()/ms)
	res.set("cic.write_calls", "count", float64(writes))
	res.set("cic.close_drain_s", "s", closeT.Seconds())
	res.set("cic.reorder_wait_ms_p50", "ms", 1e3*h[hReorder].Quantile(0.5))
	res.set("cic.workers_busy_frac", "ratio", h[hDemod].Sum/a.workerSeconds)

	res.set("rx.detect_s_per_msample", "s/Msample", perMs(hDetect))
	res.set("rx.detect_windows", "count", float64(c["detect_windows"]))
	res.set("rx.preambles", "count", float64(c["preambles_detected"]))
	res.set("rx.detect_recall", "ratio", frac(int64(recalled), int64(truth)))
	res.set("rx.detect_precision", "ratio", frac(int64(precise), int64(detections)))
	dispatched := c["headers_decoded"] + c["header_failures"]
	res.set("rx.header_ok_frac", "ratio", frac(c["headers_decoded"], dispatched))
	// A payload whose first decode fails its CRC goes to chase: it either
	// recovers (crc_chase_recovered, then counted as a pass) or fails.
	attempts := c["crc_fail"] + c["crc_chase_recovered"]
	res.set("rx.chase_attempts", "count", float64(attempts))
	res.set("rx.chase_recovered_frac", "ratio", frac(c["crc_chase_recovered"], attempts))
	res.set("rx.chase_us_per_attempt", "us", pc.chaseUS)

	res.set("core.dispatch_s_per_msample", "s/Msample", perMs(hDispatch))
	payloadSyms := c["symbols_demodulated"] - phy.HeaderSymbolCount*dispatched
	res.set("core.demod_us_per_symbol", "us", 1e6*h[hDemod].Sum/float64(max(payloadSyms, 1)))
	res.set("core.icss_us_per_symbol", "us", pc.icssUS)
	res.set("core.sed_gates_us_per_symbol", "us", pc.sedGatesUS)
	res.set("core.symbols", "count", float64(c["symbols_demodulated"]))
	res.set("core.icss_subsymbols", "count", float64(c["icss_subsymbols"]))
	res.set("core.collision_size_mean", "count", h[hCollisions].Mean())
	res.set("core.sed_reject_frac", "ratio", frac(c["sed_reject"], c["sed_reject"]+c["sed_accept"]))
	res.set("core.cfo_reject_frac", "ratio", frac(c["cfo_reject"], c["cfo_reject"]+c["cfo_accept"]))
	res.set("core.power_reject_frac", "ratio", frac(c["power_reject"], c["power_reject"]+c["power_accept"]))

	res.set("phy.decode_us_per_packet", "us", pc.phyDecodeUS)
	res.set("phy.crc_ok_frac", "ratio", frac(c["crc_pass"], c["crc_pass"]+c["crc_fail"]))

	res.set("server.read_frame_us_per_frame", "us", pc.readFrameUS)
	res.set("server.decode_iq_ns_per_sample", "ns", pc.decodeIQNS)
	res.set("server.publish_us_per_record", "us", pc.publishUS)

	res.set("obs.trace_overhead_frac", "ratio", a.overhead)
	// Layer self time of (a): its own IQ decode time, plus each layer's
	// per-call cost from (b) times (a)'s call counts. The stage histograms
	// cannot be summed here: at GOMAXPROCS=1 they are wall spans that also
	// cover other goroutines' turns on the processor.
	self := decodeIQ.Seconds() +
		pc.detectSPerMs*ms +
		1e-6*pc.headerSymUS*float64(phy.HeaderSymbolCount*dispatched) +
		1e-6*(pc.icssUS+pc.sedGatesUS)*float64(payloadSyms) +
		1e-6*pc.phyDecodeUS*float64(c["headers_decoded"]) +
		1e-6*pc.chaseUS*float64(attempts)
	res.set("ledger.unaccounted_frac", "ratio", 1-self/a.cpu)
	fmt.Fprintf(os.Stderr, "perfbench: (a) %.3f CPU-s over %.2f s, layers explain %.3f; (b) %d frames, %d header and %d payload symbols, %d packets, %d chase attempts\n",
		a.cpu, a.wall.Seconds(), self, pc.frames, pc.headerSyms, pc.symbols, pc.packets, pc.chaseAttempts)

	// Every frame's IQ decode and Write, and the Close, one trace per
	// station.
	for i, sp := range a.stations {
		id := b.traces[i].station + "/io"
		for _, f := range sp.frameIO {
			spans = append(spans,
				newSpan(id, "server.decode_iq", "", f.decode, f.write),
				newSpan(id, "cic.write", "", f.write, f.done))
		}
		spans = append(spans, newSpan(id, "cic.close", "", sp.closeAt[0], sp.closeAt[1]))
	}
	return spans, nil
}

// daemonMetrics derives the server, cluster, generator and set-up metrics
// from part (c): /proc and /metrics at the end of the stream, the backend
// and router record streams, and the cold spawns.
func (b *bench) daemonMetrics(res *result, tr *topoRun) {
	ms := float64(tr.windowSamples) / 1e6
	var gwCPU, frames, bytes float64
	for _, g := range []string{"gw", "b0", "b1"} {
		if c, ok := tr.cpu1[g]; ok {
			gwCPU += c - tr.cpu0[g]
		}
		frames += float64(tr.stats[g].Counters[server.MetricFramesIngested])
		bytes += float64(tr.stats[g].Counters[server.MetricBytesIngested])
	}
	res.set("server.frames", "count", frames)
	res.set("server.bytes", "count", bytes)
	res.set("server.gatewayd_cpu_s_per_msample", "s/Msample", gwCPU/ms)

	rs := tr.stats["router"]
	res.set("cluster.routerd_cpu_s_per_msample", "s/Msample", (tr.cpu1["router"]-tr.cpu0["router"])/ms)
	res.set("cluster.records_relayed", "count", float64(rs.Counters[cluster.MetricRecordsRelayed]))
	res.set("cluster.records_deduped", "count", float64(rs.Counters[cluster.MetricRecordsDeduped]))
	res.set("cluster.failovers", "count", float64(vecSum(rs, cluster.MetricFailovers)))
	res.set("cluster.retain_mb_peak", "MB", float64(tr.retainPeak)*8/1e6)
	var hops []float64
	for st, recs := range tr.recs {
		at := map[int64]time.Duration{}
		for _, r := range tr.backendRecs[st] {
			at[r.Start] = r.at
		}
		for _, r := range recs {
			if t, ok := at[r.Start]; ok {
				hops = append(hops, float64(r.at-t)/float64(time.Millisecond))
			}
		}
	}
	hopP99, q, _ := tailPercentile(hops, 0.99)
	if len(hops) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: cluster.hop over %d records; the tail is p%.4g\n", len(hops), 100*q)
	}
	res.set("cluster.hop_p50_ms", "ms", median(hops))
	res.set("cluster.hop_p99_ms", "ms", hopP99)

	late := b.senderLateness(tr)
	lateP99, _, _ := tailPercentile(late, 0.99)
	res.set("gen.late_p99_ms", "ms", lateP99)
	res.set("setup.wall_s", "s", median(tr.setup))
}

// writeSpans writes the spans as NDJSON, one span a line.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
