package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"cic"
	"cic/internal/eval"
	"cic/internal/phy"
	"cic/internal/server"
	"cic/internal/sim"
	"cic/internal/traffic"
)

// payloadLen is the payload size of every generated packet.
const payloadLen = 28

// A station's stream is one seeded trace period repeated back to back. A
// period is laid out as
//
//	[lead-in] [segment 0] ... [segment segments-1] [gap]
//
// Each segment is a D1 collision trace rendered through the same path as
// cic-gen traffic mode (sim.NewNetwork + BuildRun): Poisson traffic at the
// workload's rate, holding exactly rate·duration packets (see
// buildSegment), then a packet's airtime of tail. The deployments are
// fixed, like the paper's testbed: segment k of station i always uses the
// D1 node draw deploymentSeed(i, k), and the benchmark seed drives the
// traffic, payloads, channel phases and noise. Decode cost varies more
// with the node draw (SNRs and CFOs) than with the traffic, so fixing the
// draws keeps runs of different seeds comparable, and four draws per
// period keep the workload from resting on one lucky or unlucky draw. The lead-in is quiet; the gap is quiet and as long
// as the Gateway's airtime budget for a packet whose header it could not
// decode, so no packet of one repetition, nor any nominal extent the
// Gateway assumes for it, overlaps a packet of the next. The Gateway's
// decode of every repetition then equals its decode of the period alone,
// shifted by the repetition's offset. That is what lets the correctness
// gate compare a long stream against an in-process decode of one period,
// and what keeps memory bounded by one period per station. Within a
// segment's traffic the offered load is the workload's rate; averaged over
// the period it is lower by the quiet share, 7 to 8%.

// quietSamples is the noise-only lead-in of a period (8 symbols).
const quietSamples = 8 * 1024

// segments is the number of deployments per period.
const segments = 4

// periodTarget is the length, in samples, a station's period is sized to
// (workload.plan rounds it to whole frames and to the run's length).
const periodTarget = 8 << 20

// gtPacket is one ground-truth transmission in period coordinates.
type gtPacket struct {
	start, end int64 // [start, end) samples
	payload    string
}

// trace is one station's generated input, held in memory before timing
// starts.
type trace struct {
	station string
	period  int64    // samples per period (a multiple of the frame size)
	frame   int      // samples per IQ frame
	frames  [][]byte // one period of encoded IQ frames, header included
	truth   []gtPacket
}

// frameCount is the number of IQ frames per period.
func (t *trace) frameCount() int { return len(t.frames) }

// streamSamples is the length of a stream of n periods.
func (t *trace) streamSamples(n int) int64 { return int64(n) * t.period }

// trafficSeed derives the traffic seed of station i's segment k from the
// benchmark seed.
func trafficSeed(seed int64, i, k int) int64 {
	return traffic.SubSeed(traffic.SubSeed(seed, int64(i)), int64(k))
}

// deploymentSeed is the fixed D1 node draw of station i's segment k.
func deploymentSeed(i, k int) int64 { return int64(1 + i*segments + k) }

// benchConfig is the PHY configuration of every workload.
func benchConfig() cic.Config { return cic.DefaultConfig() }

// layout is where a period's segments sit.
type layout struct {
	span int64 // samples per segment: traffic plus one packet of tail
	runs []*sim.Run
}

// read renders period samples [start, start+len(dst)): each sample from
// the segment whose span holds it; the lead-in from segment 0's noise and
// the gap from the last segment's.
func (l *layout) read(dst []complex128, start int64) {
	for len(dst) > 0 {
		k := (start - quietSamples) / l.span
		if start < quietSamples {
			k = 0
		}
		if k >= int64(len(l.runs)) {
			k = int64(len(l.runs)) - 1
		}
		off := quietSamples + k*l.span
		n := int64(len(dst))
		if k < int64(len(l.runs))-1 && start < off+l.span && start+n > off+l.span {
			n = off + l.span - start
		}
		if start < off && start+n > off {
			n = off - start
		}
		l.runs[k].Source.Read(dst[:n], start-off)
		dst, start = dst[n:], start+n
	}
}

// maxDraws bounds the traffic draws buildSegment tries.
const maxDraws = 10000

// buildSegment renders one segment whose packet count equals the offered
// load, rate·dur rounded: it draws traffic sub-seeds of seed in turn until
// one yields that count. Arrival times, nodes, payloads, phases and noise
// still vary with the seed; only the realised load is held at the
// workload's, so that a seed's decode cost and delivery do not swing with
// the Poisson count. Counts are checked on the traffic schedule alone
// before the segment is modulated.
func buildSegment(nw *sim.Network, rate, dur float64, seed int64) (*sim.Run, error) {
	target := int(math.Round(rate * dur))
	fs := nw.Cfg.Chirp.SampleRate()
	tcfg := traffic.Config{
		Nodes:         nw.Dep.Nodes,
		PerNodeRate:   rate / float64(nw.Dep.Nodes),
		Duration:      dur,
		SampleRate:    fs,
		PayloadLen:    payloadLen,
		PacketAirtime: float64(nw.Cfg.PacketSampleCount(payloadLen)) / fs,
		DutyCycle:     nw.Dep.DutyCycle,
	}
	for d := int64(0); d < maxDraws; d++ {
		s := traffic.SubSeed(seed, d)
		txs, err := traffic.Generate(tcfg, s)
		if err != nil {
			return nil, err
		}
		if len(txs) != target {
			continue
		}
		run, err := nw.BuildRun(rate, dur, payloadLen, s)
		if err != nil {
			return nil, err
		}
		if len(run.Truth) == target {
			return run, nil
		}
	}
	return nil, fmt.Errorf("no traffic draw of %d packets in %d tries", target, maxDraws)
}

// genTraces renders one period per station, using at most two goroutines.
func genTraces(w workload, ids []string, seed int64, period int64) ([]*trace, error) {
	cfg := benchConfig()
	pkt, err := cfg.PacketSamples(payloadLen)
	if err != nil {
		return nil, err
	}
	fs := cfg.SampleRate()
	ecfg := eval.DefaultConfig()
	fc := ecfg.Frame
	maxPkt := int64(fc.PreambleSampleCount() + phy.MaxSymbolCount(fc.PHY)*fc.Chirp.SamplesPerSymbol())
	span := (period - 2*quietSamples - maxPkt) / segments
	if span <= int64(pkt) {
		return nil, fmt.Errorf("period of %d samples is too short for %d segments", period, segments)
	}
	dep, err := sim.DeploymentByName("D1")
	if err != nil {
		return nil, err
	}
	traces := make([]*trace, len(ids))
	layouts := make([]*layout, len(ids))
	for i, id := range ids {
		tr := &trace{station: id, period: period, frame: w.frame, frames: make([][]byte, period/int64(w.frame))}
		l := &layout{span: span}
		for k := 0; k < segments; k++ {
			nw, err := sim.NewNetwork(fc, dep, deploymentSeed(i, k))
			if err != nil {
				return nil, err
			}
			run, err := buildSegment(nw, w.rate, float64(span-int64(pkt))/fs, trafficSeed(seed, i, k))
			if err != nil {
				return nil, err
			}
			off := quietSamples + int64(k)*span
			for _, tx := range run.Truth {
				start := tx.StartSample + off
				tr.truth = append(tr.truth, gtPacket{start: start, end: start + int64(pkt), payload: hex.EncodeToString(tx.Payload)})
			}
			l.runs = append(l.runs, run)
		}
		traces[i], layouts[i] = tr, l
	}

	// Render frames in parallel.
	type job struct{ st, f int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			iq := make([]complex128, w.frame)
			var body []byte
			for j := range jobs {
				layouts[j.st].read(iq, int64(j.f*w.frame))
				body = server.AppendIQBody(body[:0], iq)
				var b bytes.Buffer
				b.Grow(frameHeader + len(body))
				// WriteFrame cannot fail on a bytes.Buffer with a body under
				// the IQ cap (the frame size is at most MaxIQSamples).
				_ = server.WriteFrame(&b, server.FrameIQ, body)
				traces[j.st].frames[j.f] = b.Bytes()
			}
		}()
	}
	for st, tr := range traces {
		for f := range tr.frames {
			jobs <- job{st, f}
		}
	}
	close(jobs)
	wg.Wait()
	return traces, nil
}

// frameHeader is the wire frame header: a type byte and a big-endian
// uint32 body length (docs/SERVER.md).
const frameHeader = 5

// frameBody returns the IQ body of an encoded frame.
func frameBody(frame []byte) []byte { return frame[frameHeader:] }
