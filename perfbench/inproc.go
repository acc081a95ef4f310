package main

import (
	"encoding/hex"
	"sync"
	"syscall"
	"time"

	"cic"
	"cic/internal/server"
)

// inprocMode selects how decodeInProcess drives the in-process Gateways.
type inprocMode struct {
	paced  bool    // follow the workload's open-loop schedule
	sps    float64 // samples/s per station when paced
	traced bool    // attach metrics, tracer and decode interceptor
	// reg is the registry traced passes attach; nil gives the pass a
	// fresh one.
	reg *cic.Metrics
}

// stamped is a trace event, or a decode-interceptor call, with the wall
// time it happened at relative to the pass's origin.
type stamped struct {
	ev cic.Event
	at time.Duration
}

// stationPass is what one station's in-process Gateway produced.
type stationPass struct {
	packets []cic.Packet

	// Filled on traced passes.
	events     []stamped               // detect, header and emit events
	workerDone map[int64]time.Duration // decode interceptor call, by packet start
	writeTime  time.Duration           // inside Gateway.Write, blocking included
	writeCalls int
	closeTime  time.Duration // inside Gateway.Close (flush and drain)
	decodeIQ   time.Duration // inside server.DecodeIQBody
	frameIO    []frameIO     // per frame, on the events' time base
	closeAt    [2]time.Duration
	// paceOrigin is when the schedule started, on the time base of the
	// stamped events: frame f of a paced pass is due at
	// paceOrigin + paceDue(f, ...).
	paceOrigin time.Duration
}

// frameIO is when one frame's server.DecodeIQBody began, when its
// Gateway.Write began, and when that Write returned.
type frameIO struct{ decode, write, done time.Duration }

// inprocResult is one in-process pass over one period of every station.
type inprocResult struct {
	stations []*stationPass
	stats    cic.Stats     // shared registry (traced passes)
	cpu      float64       // process CPU seconds over the pass
	wall     time.Duration // first frame to last packet
	// workerSeconds is the wall time of the pass times the number of
	// decode workers of all its Gateways.
	workerSeconds float64
	// overhead is the tracing overhead measured by part (d) of a traced
	// run.
	overhead float64
}

// selfCPU is this process's utime + stime in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// decodeInProcess pushes one period of each station's trace, frame by
// frame, through its own in-process cic.Gateway at this commit, the way
// cic-gatewayd does: each IQ body is decoded with server.DecodeIQBody
// and handed to Gateway.Write, and the stream ends with Close.
func decodeInProcess(traces []*trace, mode inprocMode) (*inprocResult, error) {
	res := &inprocResult{stations: make([]*stationPass, len(traces))}
	reg := mode.reg
	if mode.traced && reg == nil {
		reg = cic.NewMetrics()
	}
	origin := time.Now()
	gws := make([]*cic.Gateway, len(traces))
	for i := range traces {
		sp := &stationPass{}
		res.stations[i] = sp
		var opts []cic.Option
		if mode.traced {
			sp.workerDone = map[int64]time.Duration{}
			var mu sync.Mutex
			opts = append(opts,
				cic.WithMetrics(reg),
				cic.WithTracer(func(ev cic.Event) {
					at := time.Since(origin)
					mu.Lock()
					sp.events = append(sp.events, stamped{ev, at})
					mu.Unlock()
				}),
				cic.WithDecodeInterceptor(func(p cic.Packet) cic.Packet {
					at := time.Since(origin)
					mu.Lock()
					sp.workerDone[p.Start] = at
					mu.Unlock()
					return p
				}))
		}
		gw, err := cic.NewGateway(benchConfig(), opts...)
		if err != nil {
			for _, g := range gws[:i] {
				g.Close()
			}
			return nil, err
		}
		gws[i] = gw
	}
	workers := 0
	for _, gw := range gws {
		workers += gw.Workers()
	}

	cpu0 := selfCPU()
	start := time.Now()
	for _, sp := range res.stations {
		sp.paceOrigin = start.Sub(origin)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(traces))
	for i, tr := range traces {
		wg.Add(2)
		go func(sp *stationPass, gw *cic.Gateway) {
			defer wg.Done()
			for p := range gw.Packets() {
				sp.packets = append(sp.packets, p)
			}
		}(res.stations[i], gws[i])
		go func(i int, tr *trace, sp *stationPass, gw *cic.Gateway) {
			defer wg.Done()
			var iq []complex128
			for f, fr := range tr.frames {
				if mode.paced {
					if d := paceDue(f, tr.frame, mode.sps) - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				}
				t0 := time.Now()
				var err error
				if iq, err = server.DecodeIQBody(iq[:0], frameBody(fr)); err != nil {
					errs[i] = err
					break
				}
				t1 := time.Now()
				if _, err := gw.Write(iq); err != nil {
					errs[i] = err
					break
				}
				t2 := time.Now()
				sp.decodeIQ += t1.Sub(t0)
				sp.writeTime += t2.Sub(t1)
				sp.writeCalls++
				if mode.traced {
					sp.frameIO = append(sp.frameIO, frameIO{t0.Sub(origin), t1.Sub(origin), t2.Sub(origin)})
				}
			}
			t0 := time.Now()
			_ = gw.Close() // Close only fails after an earlier Close
			t1 := time.Now()
			sp.closeTime = t1.Sub(t0)
			sp.closeAt = [2]time.Duration{t0.Sub(origin), t1.Sub(origin)}
		}(i, tr, res.stations[i], gws[i])
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = selfCPU() - cpu0
	res.workerSeconds = float64(workers) * res.wall.Seconds()
	if reg != nil {
		res.stats = reg.Snapshot()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodeEach runs decodeInProcess on one station at a time, all passes
// sharing one registry, and merges the passes as if they were one. It is
// how a single processor follows a topology that gives each station a
// processor of its own.
func decodeEach(traces []*trace, mode inprocMode) (*inprocResult, error) {
	if mode.traced {
		mode.reg = cic.NewMetrics()
	}
	out := &inprocResult{}
	for _, t := range traces {
		r, err := decodeInProcess([]*trace{t}, mode)
		if err != nil {
			return nil, err
		}
		out.stations = append(out.stations, r.stations...)
		out.cpu += r.cpu
		out.wall += r.wall
		out.workerSeconds += r.workerSeconds
		out.stats = r.stats // the shared registry: the last snapshot covers every pass
	}
	return out, nil
}

// keys returns a station's decoded packets as gate records.
func (sp *stationPass) keys() []recordKey {
	out := make([]recordKey, len(sp.packets))
	for i, p := range sp.packets {
		out[i] = recordKey{Start: p.Start, OK: p.OK, Payload: hex.EncodeToString(p.Payload), FECCorrected: p.FECCorrected}
	}
	return out
}
