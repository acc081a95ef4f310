package cic

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cic/internal/baseline/choir"
	"cic/internal/baseline/ftrack"
	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/phy"
	"cic/internal/rx"
)

// Gateway is the decoder: push raw IQ samples in arbitrary chunks as they
// arrive from an SDR front end, and receive decoded packets on a channel
// as soon as each transmission completes. This is the paper's §6
// deployment shape — a demodulator co-located with the radio or running
// as a virtual gateway in the cloud. It is the only decode pipeline: a
// Receiver's batch decode writes its whole source into a Gateway and
// closes it.
//
//	gw, _ := cic.NewGateway(cfg, cic.WithWorkers(4))
//	go func() {
//	    for pkt := range gw.Packets() {
//	        handle(pkt)
//	    }
//	}()
//	for chunk := range sdr {
//	    gw.Write(chunk)
//	}
//	gw.Close()
//
// Internally the gateway keeps a bounded ring of recent samples and scans
// each newly arrived region for preambles incrementally, with the
// algorithm's detector (CIC's down-chirp scan, or the conventional
// up-chirp scan for the baselines). A packet that starts at sample t is
// detected by the time t plus the scan's detection horizon has been
// written (16.78 symbols for the down-chirp scan at SF8/OSR4, 21 for the
// up-chirp scan), so a span of air can be decoded once the horizon past
// its end is on air: every transmission that could interfere with it is
// tracked by then, and the CIC boundary bookkeeping is complete.
//
// Dispatch runs in two stages, both in start (air-time) order, on a stage
// goroutine of their own: Write keeps the ring writes and the detection
// scan, and hands each piece's detections over an unbuffered channel, so
// the scan of the next piece overlaps the dispatch work of this one. The
// header stage decodes a packet's 8 header symbols once the horizon past
// them is on air; this fixes the packet's length, which later packets'
// boundary bookkeeping reads. The payload stage waits for the horizon past
// the packet's real end, assigns its sequence number, then snapshots its
// samples out of the ring with a two-segment bulk copy and hands the
// expensive payload demodulation to a pool of workers, each owning a
// private symbol picker. A short packet therefore leaves shortly after it
// ends, not after a max-length airtime budget. For AlgorithmLoRa the
// payload stage also applies the standard gateway's single-demodulator
// capture lock: a packet that loses it is never demodulated and emits
// nothing. A reorder buffer delivers results on Packets() in sequence
// order, so the output sequence is identical to a single-worker gateway.
// Backpressure is bounded by the pool depth: when every worker is busy and
// the job queue is full, the stage goroutine blocks, and Write blocks on
// the hand-off behind it.
//
// Write, Close, Packets and BufferedSamples are all safe for concurrent
// use (Write and Close serialise on an internal mutex). A panic anywhere
// in the pipeline (the scan, the stage goroutine, a worker, or delivery,
// callbacks included) fails the gateway: the packets sequenced before it
// are still delivered, and Write and Close return an error wrapping
// ErrGatewayPanic.
type Gateway struct {
	cfg  Config
	fcfg frame.Config
	algo algoSpec
	// scan is the algorithm's detector (see rx.Detector.ScanDownchirpRange).
	scan    func(src rx.SampleSource, start, end int64, tracked []*rx.Packet) []*rx.Packet
	out     chan Packet
	maxPkt  int64 // samples in a max-length packet
	scanLag int64 // how far detection trails the newest sample
	horizon int64 // samples past a packet's start by which it is detected
	step    int64 // largest Write piece the ring can take before processing
	workers int

	// Ingest state, guarded by wmu (Write, Close and the flush path
	// serialise on it). Only the ingest goroutine writes ring samples. The
	// stage goroutine reads them without the lock; step keeps every sample
	// it reads clear of the slots the next piece overwrites.
	wmu      sync.Mutex
	closed   bool
	buf      []complex128 // ring storage: sample a lives at buf[a%len(buf)]
	base     atomic.Int64 // absolute index of the oldest retained sample
	written  atomic.Int64 // absolute index one past the newest sample
	scanned  int64        // scan frontier (exclusive)
	scanSrc  ringSource   // the scan's view of the ring
	tracked  []*rx.Packet // the scan's duplicate filter: detections whose max-length span may still reach the ring
	maxIDSeq int

	// Stage state, owned by the stage goroutine. The packets it tracks are
	// shared with tracked, but the scan reads only Start, which no stage
	// writes.
	pieces    chan piece            // unbuffered hand-off from Write to the stage goroutine
	stageSrc  ringSource            // the ring as the running piece was written
	stageDone chan struct{}         // closed when the stage goroutine exits
	fault     atomic.Pointer[error] // the first panic, which failed the gateway; nil while healthy
	hdrPick   rx.SymbolPicker       // header demodulation
	pending   []*rx.Packet          // detected, header not yet decoded
	queued    []decodeJob           // header decoded, awaiting the payload stage (start order)
	hdrOthers []*rx.Packet          // header-stage interferer scratch
	active    []*rx.Packet          // all tracked packets still relevant as interferers
	lockedBy  *rx.Packet            // capture-lock holder (AlgorithmLoRa only)
	seq       int64                 // next sequence number, assigned at the payload stage (reorder key)

	jobs        chan decodeJob
	results     chan seqPacket
	workerWG    sync.WaitGroup
	reorderDone chan struct{}
	snapPool    sync.Pool

	// Observability. reg is the WithMetrics registry (nil when detached);
	// m is the pre-resolved handle set (the shared no-op set when reg is
	// nil, so every stage updates fields unconditionally without branching
	// on enablement). detectedAt holds each pending packet's wall-clock
	// detection instant for the decode-latency histogram and emit events;
	// it is only allocated when metrics or tracing are on, so the disabled
	// path never reads the clock. Owned by the stage goroutine.
	reg        *Metrics
	m          *obs.DecodeMetrics
	tracer     obs.Tracer
	detectedAt map[int]time.Time

	// intercept (WithDecodeInterceptor) transforms each worker result
	// before reorder; nil by default.
	intercept func(Packet) Packet

	// flight records emit verdicts and panics into the session's
	// flight-recorder scope (WithFlightScope). Nil when no recorder is
	// attached; never touched from the //cic:hotpath loop.
	flight *obs.FlightScope
}

// piece is one Write piece handed from the scan to the stage goroutine:
// the detections of the scan that followed its ring write, and the ring
// span and flush flag the serial pipeline would have run its stages with.
type piece struct {
	found         []*rx.Packet
	at            time.Time // detection instant (zero when metrics and tracing are off)
	base, written int64
	flush         bool
}

// decodeJob carries one dispatched packet to the worker pool. The stage
// goroutine has already decoded the header; the worker demodulates the
// payload against a private snapshot of the ring, so it never contends
// with ingest for sample access.
type decodeJob struct {
	seq    int64
	ready  bool   // result is final (header failed): just forward it
	result Packet // prefilled Start/SNR/CFO; final when ready

	pkt       *rx.Packet   // tracked packet while queued; private clone once dispatched
	others    []*rx.Packet // private clones of the interferer geometry
	syms      []uint16     // header symbols (cap covers the payload)
	snap      []complex128 // samples [snapStart, snapStart+len(snap))
	snapStart int64
	snapBuf   *[]complex128 // pool token for snap

	// Trace context (zero-valued when metrics and tracing are off).
	id          int            // packet ID assigned at detection
	detectedAt  time.Time      // wall-clock detection instant
	gates       obs.GateCounts // header-phase gate verdicts
	dispatchDur time.Duration  // header-stage share of stage_dispatch_seconds
}

// seqPacket is a decoded packet tagged with its dispatch sequence number
// plus the trace context the reorder stage needs for latency accounting
// and emit events.
type seqPacket struct {
	seq int64
	pkt Packet

	id         int
	headerOK   bool
	nsyms      int
	gates      obs.GateCounts
	detectedAt time.Time // detection instant (zero when tracing is off)
	doneAt     time.Time // worker completion instant (zero when metrics off)
}

// ErrGatewayClosed is returned by Write after Close.
var ErrGatewayClosed = errors.New("cic: gateway closed")

// ErrGatewayPanic is wrapped by the error Write and Close return once a
// panic has failed the gateway. The packets sequenced before the panic
// are still delivered.
var ErrGatewayPanic = errors.New("cic: gateway panic")

// The fault sites: where a panic fails the gateway (see recoverFault).
const (
	siteScan   = "scan"   // ring write and detection scan, on the Write goroutine
	siteStage  = "stage"  // header and payload stages, on the stage goroutine
	siteWorker = "worker" // payload demodulation and the interceptor
	siteEmit   = "emit"   // delivery and its tracer and flight callbacks
)

// algoSpec is what the Gateway runs for one algorithm: its detection scan,
// its symbol picker, and whether the capture lock applies. Every picker
// ranks alternates, so every payload gets the CRC-driven chase pass.
type algoSpec struct {
	upchirp     bool               // conventional up-chirp scan (else CIC's down-chirp scan)
	detect      rx.DetectorOptions // the scan's tuning
	picker      func(frame.Config, core.Options) (rx.AlternatePicker, error)
	captureLock bool // the standard gateway's single-demodulator lock
}

var algorithms = map[Algorithm]algoSpec{
	AlgorithmCIC: {picker: func(fc frame.Config, o core.Options) (rx.AlternatePicker, error) {
		return core.NewDemodulator(fc, o)
	}},
	AlgorithmStrawman: {picker: func(fc frame.Config, o core.Options) (rx.AlternatePicker, error) {
		o.Strawman = true
		return core.NewDemodulator(fc, o)
	}},
	AlgorithmLoRa: {upchirp: true, captureLock: true, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
		return stdlora.NewPicker(fc)
	}},
	AlgorithmChoir: {upchirp: true, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
		return choir.NewPicker(fc, choir.Options{})
	}},
	// FTrack extracts multiple frequency tracks per window, so its preamble
	// search tolerates a stronger concurrent peak.
	AlgorithmFTrack: {upchirp: true, detect: rx.DetectorOptions{UpchirpTopK: 3}, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
		return ftrack.NewPicker(fc, ftrack.Options{})
	}},
}

// NewGateway builds a gateway. Options are as for NewReceiver; WithWorkers
// sets the payload decode pool size (default GOMAXPROCS).
func NewGateway(cfg Config, options ...Option) (*Gateway, error) {
	fc, err := cfg.frameConfig()
	if err != nil {
		return nil, err
	}
	o, err := newOptions(options)
	if err != nil {
		return nil, err
	}
	spec := algorithms[o.algo]
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dmx := obs.NewDecodeMetrics(o.metrics)
	detOpts := spec.detect
	detOpts.Metrics = dmx
	det, err := rx.NewDetector(fc, detOpts)
	if err != nil {
		return nil, err
	}
	coreOpts := core.Options{
		DisableSED:         o.disableSED,
		DisableCFOFilter:   o.disableCFOFilter,
		DisablePowerFilter: o.disablePowerFilter,
		Metrics:            dmx,
	}
	hdrPick, err := spec.picker(fc, coreOpts)
	if err != nil {
		return nil, err
	}
	maxPkt := int64(fc.PreambleSampleCount() + phy.MaxSymbolCount(fc.PHY)*fc.Chirp.SamplesPerSymbol())
	m := int64(fc.Chirp.SamplesPerSymbol())
	// The ring must hold the longest packet plus detection lag plus a
	// full scan region; triple the packet length is comfortably enough.
	buf := make([]complex128, 3*maxPkt)
	g := &Gateway{
		cfg:     cfg,
		fcfg:    fc,
		algo:    spec,
		scan:    det.ScanDownchirpRange,
		hdrPick: hdrPick,
		out:     make(chan Packet, 64),
		maxPkt:  maxPkt,
		// Every scan window is buffered.
		scanLag:     m,
		workers:     workers,
		buf:         buf,
		scanSrc:     ringSource{buf: buf},
		tracked:     make([]*rx.Packet, 0, 16), // sized up front, as the ring is
		stageSrc:    ringSource{buf: buf},
		scanned:     -m, // the first window starts a symbol early, as in a whole-span scan
		pieces:      make(chan piece),
		stageDone:   make(chan struct{}),
		jobs:        make(chan decodeJob, workers),
		results:     make(chan seqPacket, workers),
		reorderDone: make(chan struct{}),
		reg:         o.metrics,
		m:           dmx,
		tracer:      obs.Tracer(o.tracer),
		intercept:   o.intercept,
		flight:      o.flight,
	}
	if spec.upchirp {
		// The up-chirp run's down-chirp search reads 6.5 symbols past
		// the run's last window.
		g.scan = det.ScanUpchirpRange
		g.scanLag = 7 * m
	}
	// A packet's anchors lie on its down-chirps, at most 12 symbols past
	// its start (the second down-chirp plus the half-symbol scan grid),
	// and the detector resolves an anchor ResolveLag behind the newest
	// sample. Every detection lands within this horizon (pinned by
	// TestGatewayDetectionHorizon).
	g.horizon = 12*m + det.ResolveLag(g.scanLag)
	// A packet still waiting for either stage starts at most maxPkt+horizon
	// before the newest sample the stages last ran with. The stage
	// goroutine may still read those samples while the next piece is
	// written, so two pieces of this size never evict them.
	g.step = (int64(len(g.buf)) - maxPkt - g.horizon) / 2
	if o.metrics != nil || o.tracer != nil {
		g.detectedAt = make(map[int]time.Time)
	}
	// Snapshot buffers are sized on demand: a pooled buffer grows only
	// when a longer packet needs it.
	g.snapPool.New = func() any { return new([]complex128) }
	pickers := make([]rx.AlternatePicker, workers)
	for w := range pickers {
		if pickers[w], err = spec.picker(fc, coreOpts); err != nil {
			return nil, err
		}
	}
	for _, pk := range pickers {
		g.workerWG.Add(1)
		go g.worker(pk)
	}
	go g.stage()
	go func() {
		g.reorder()
		close(g.reorderDone)
	}()
	return g, nil
}

// Packets returns the channel on which decoded packets are delivered. The
// channel is closed by Close after the final flush.
func (g *Gateway) Packets() <-chan Packet { return g.out }

// BufferedSamples reports how many samples the gateway currently retains.
func (g *Gateway) BufferedSamples() int64 {
	return g.written.Load() - g.base.Load()
}

// Workers reports the payload decode pool size.
func (g *Gateway) Workers() int { return g.workers }

// Write appends IQ samples to the stream and processes whatever became
// decodable. A write of any size decodes as the same samples written in
// small chunks would: it is taken in ring-safe pieces, each scanned and
// then handed to the stage goroutine. Write may block when every decode
// worker is busy and the job queue is full, or when the Packets channel
// is full (backpressure).
func (g *Gateway) Write(iq []complex128) (int, error) {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.closed {
		return 0, ErrGatewayClosed
	}
	if err := g.failed(); err != nil {
		return 0, err
	}
	g.m.SamplesIngested.Add(int64(len(iq)))
	g.ingest(iq, false) //cic:lock-ok: the hand-off blocks under wmu by design — the stage goroutine's dispatch is the documented backpressure, it never takes wmu, and it keeps receiving after a fault
	if err := g.failed(); err != nil {
		return 0, err
	}
	return len(iq), nil
}

// Close flushes the stream (decoding every packet whose samples are fully
// buffered, even if the air has not moved past its end), drains the worker
// pool and closes the Packets channel. Close is idempotent and safe to
// call concurrently with Write.
func (g *Gateway) Close() error {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	if g.closed {
		return nil
	}
	g.closed = true
	g.ingest(nil, true) //cic:lock-ok: final flush under wmu serialises with Write; the stage goroutine never takes wmu and workers drain g.jobs, so the hand-off cannot block forever
	close(g.pieces)
	<-g.stageDone //cic:lock-ok: shutdown handshake — the stage goroutine exits once pieces closes, and g.jobs must not close before its last dispatch
	close(g.jobs)
	g.workerWG.Wait() //cic:lock-ok: shutdown barrier — workers never take wmu, so the wait under it cannot deadlock, and holding it keeps Write/Close mutually exclusive
	close(g.results)
	<-g.reorderDone //cic:lock-ok: reorder goroutine exits once results closes; the receive is the shutdown handshake, not a steady-state block
	return g.failed()
}

// failed returns the error that failed the gateway, nil while healthy.
func (g *Gateway) failed() error {
	if err := g.fault.Load(); err != nil {
		return *err
	}
	return nil
}

// recoverFault is the gateway's one fault path, deferred at each fault
// site. A panic there fails the gateway instead of the process: the first
// one is kept, wrapped in ErrGatewayPanic, for Write and Close to return,
// and each one is recorded as <site>_panic in the flight scope. After a
// fault the pipeline stops taking new work but keeps draining, so neither
// Write nor Close blocks, and every packet sequenced before the fault is
// still delivered.
func (g *Gateway) recoverFault(site string) {
	v := recover()
	if v == nil {
		return
	}
	if site == siteWorker {
		g.m.WorkerPanics.Inc()
	}
	g.flight.RecordErr(site+"_panic", "gateway "+site, fmt.Sprint(v))
	err := fmt.Errorf("%w: %s: %v", ErrGatewayPanic, site, v)
	g.fault.CompareAndSwap(nil, &err)
}

// ingest writes iq to the ring in ring-safe pieces, scanning each and
// handing it to the stage goroutine; flush then hands over a last piece
// scanned to the end. It stops at the gateway's first fault. Caller holds
// wmu.
func (g *Gateway) ingest(iq []complex128, flush bool) {
	defer g.recoverFault(siteScan)
	for rest := iq; len(rest) > 0 && g.fault.Load() == nil; {
		n := min(int64(len(rest)), g.step)
		g.writeBulk(rest[:n])
		g.pieces <- g.scanPiece(false)
		rest = rest[n:]
	}
	if flush && g.fault.Load() == nil {
		g.pieces <- g.scanPiece(true)
	}
}

// writeBulk appends samples (at most one ring's worth) to the ring with
// at most two copy calls, evicting the oldest samples when full. Caller
// holds wmu.
func (g *Gateway) writeBulk(iq []complex128) {
	n := int64(len(g.buf))
	written := g.written.Load()
	newWritten := written + int64(len(iq))
	if base := g.base.Load(); newWritten-base > n {
		g.base.Store(newWritten - n)
	}
	pos := written % n
	c := copy(g.buf[pos:], iq)
	copy(g.buf, iq[c:])
	g.written.Store(newWritten)
}

// ringSource reads the ring as an rx.SampleSource with the span
// [base, written) it had when a piece was written: the scan's reads on
// the ingest goroutine, and the stage goroutine's header demodulation and
// payload snapshots for that piece. Each goroutine owns one, so passing
// it as an interface allocates nothing.
type ringSource struct {
	buf           []complex128
	base, written int64
}

// Read fills dst with samples for the absolute window
// [start, start+len(dst)), zero-filling outside the source's span, using
// at most two copy calls.
func (r *ringSource) Read(dst []complex128, start int64) {
	buf := r.buf
	n := int64(len(buf))
	lo, hi := start, start+int64(len(dst))
	from, to := max(lo, r.base), min(hi, r.written)
	if to <= from {
		clear(dst)
		return
	}
	clear(dst[:from-lo])
	clear(dst[to-lo:])
	span := to - from
	pos := from % n
	first := min(n-pos, span)
	copy(dst[from-lo:], buf[pos:pos+first])
	copy(dst[from-lo+first:to-lo], buf[:span-first])
}

func (r *ringSource) Span() (int64, int64) { return r.base, r.written }

// scanPiece advances detection over the piece just written and returns
// the piece for the stage goroutine. Detection trails the newest sample by
// scanLag so every scan window is fully buffered; flush scans to the end.
// Caller holds wmu.
func (g *Gateway) scanPiece(flush bool) piece {
	pc := piece{base: g.base.Load(), written: g.written.Load(), flush: flush}
	scanTo := pc.written - g.scanLag
	if flush {
		scanTo = pc.written
	}
	if scanTo > g.scanned {
		t0 := g.m.DetectTime.Start()
		g.scanSrc.base, g.scanSrc.written = pc.base, pc.written
		pc.found = g.scan(&g.scanSrc, g.scanned, scanTo, g.tracked)
		g.m.DetectTime.Since(t0)
		if g.detectedAt != nil && len(pc.found) > 0 {
			pc.at = obs.Now()
		}
		for _, p := range pc.found {
			g.maxIDSeq++
			p.ID = g.maxIDSeq
			p.NSymbols = phy.MaxSymbolCount(g.fcfg.PHY)
			g.tracked = append(g.tracked, p)
			g.m.PreamblesDetected.Inc()
			if g.tracer != nil {
				g.tracer(obs.Event{
					Kind:     obs.EventDetect,
					PacketID: p.ID,
					Start:    p.Start,
					SNRdB:    p.SNRdB,
					CFOHz:    p.CFOHz,
					Score:    p.Score,
				})
			}
		}
		g.scanned = scanTo
	}
	// Keep a packet while its max-length span may still reach the ring.
	// That is a superset of the stage's active list, and the difference
	// never matters: the duplicate rule looks only near anchors, which lie
	// far past a retired packet.
	keep := g.tracked[:0]
	for _, q := range g.tracked {
		if q.Start+g.maxPkt > pc.base {
			keep = append(keep, q)
		}
	}
	clear(g.tracked[len(keep):])
	g.tracked = keep
	return pc
}

// stage is the stage goroutine: it runs each handed-over piece in Write
// order, then exits once Close closes pieces. After a fault it keeps
// receiving, so Write and Close never block on a dead stage.
func (g *Gateway) stage() {
	defer close(g.stageDone)
	for pc := range g.pieces {
		if g.fault.Load() == nil {
			g.runPiece(pc)
		}
	}
}

// runPiece runs the two dispatch stages for one piece in air-time order,
// with the ring span the piece was written with. Each stage waits for the
// detection horizon past the span it reads, by which time every
// transmission that could overlap that span has been detected; flush
// forces both stages over everything buffered.
func (g *Gateway) runPiece(pc piece) {
	defer g.recoverFault(siteStage)
	src := &g.stageSrc
	src.base, src.written = pc.base, pc.written
	g.pending = append(g.pending, pc.found...)
	g.active = append(g.active, pc.found...)
	if g.detectedAt != nil {
		for _, p := range pc.found {
			g.detectedAt[p.ID] = pc.at
		}
	}

	// Header stage, oldest start first.
	for len(g.pending) > 0 {
		idx := 0
		for i, p := range g.pending {
			if p.Start < g.pending[idx].Start {
				idx = i
			}
		}
		p := g.pending[idx]
		if !pc.flush && p.SymbolStart(g.fcfg, phy.HeaderSymbolCount)+g.horizon > pc.written {
			break
		}
		g.pending = append(g.pending[:idx], g.pending[idx+1:]...)
		g.queued = append(g.queued, g.decodeHeader(src, p))
	}

	// Payload stage, in start order: a packet waits for its real end (now
	// known from its header); a header-failed one has nothing to wait for,
	// unless the capture lock must first see every packet that could
	// steal its max-length span.
	for len(g.queued) > 0 {
		job := g.queued[0]
		if !pc.flush && (!job.ready || g.algo.captureLock) && job.pkt.End(g.fcfg)+g.horizon > pc.written {
			break
		}
		n := copy(g.queued, g.queued[1:])
		g.queued[n] = decodeJob{}
		g.queued = g.queued[:n]
		if g.algo.captureLock && !g.holdsLock(job.pkt) {
			continue
		}
		g.dispatch(src, job)
	}

	// Retire tracked packets whose samples have left the ring: they can no
	// longer interfere with anything still decodable.
	keep := g.active[:0]
	for _, q := range g.active {
		if q.End(g.fcfg) > pc.base {
			keep = append(keep, q)
		}
	}
	g.active = keep
}

// holdsLock applies the standard gateway's capture lock (the streaming
// form of stdlora.CaptureFilter) to p, in start order: p takes the lock
// unless it arrives during the holder's reception without being
// CaptureMarginDB stronger, and keeps it unless a later packet starting
// inside p's span is that much stronger than p. Every such packet is
// tracked by the time p reaches the payload stage.
func (g *Gateway) holdsLock(p *rx.Packet) bool {
	margin := dsp.AmplitudeFromDB(stdlora.CaptureMarginDB)
	if h := g.lockedBy; h != nil && p.Start < h.End(g.fcfg) && p.PeakAmp <= h.PeakAmp*margin {
		return false // receiver busy: p is lost
	}
	g.lockedBy = p
	for _, q := range g.active {
		if q.Start > p.Start && q.Start < p.End(g.fcfg) && q.PeakAmp > p.PeakAmp*margin {
			return false // a stronger packet steals the lock
		}
	}
	return true
}

// decodeHeader runs the header stage for one packet: it decodes the header block and fixes the packet's length,
// which later packets' boundary bookkeeping reads. The returned job waits
// in g.queued for the payload stage.
func (g *Gateway) decodeHeader(src rx.SampleSource, p *rx.Packet) decodeJob {
	t0 := g.m.DispatchTime.Start()
	job := decodeJob{id: p.ID, pkt: p, result: Packet{Start: p.Start, SNR: p.SNRdB, CFO: p.CFOHz}}
	if g.detectedAt != nil {
		job.detectedAt = g.detectedAt[p.ID]
		delete(g.detectedAt, p.ID)
	}
	// Only interferers overlapping p's (still max-length) span can reach
	// its header windows.
	others := g.hdrOthers[:0]
	for _, q := range g.active {
		if q != p && overlaps(g.fcfg, p, q) {
			others = append(others, q)
		}
	}
	g.hdrOthers = others
	syms := make([]uint16, 0, p.NSymbols)
	for s := 0; s < phy.HeaderSymbolCount; s++ {
		syms = append(syms, g.hdrPick.PickSymbol(src, p, s, others))
	}
	if gt, ok := g.hdrPick.(rx.GateTallier); ok {
		job.gates = gt.TakeGateTally()
	}
	if hdr, ok := rx.HeaderFromSymbols(syms, g.fcfg.PHY); ok {
		pcfg := g.fcfg.PHY
		pcfg.CR = hdr.CR
		pcfg.HasCRC = hdr.HasCRC
		p.NSymbols = phy.SymbolCount(pcfg, int(hdr.Length))
		g.m.HeadersDecoded.Inc()
		job.syms = syms
	} else {
		g.m.HeaderFailures.Inc()
		job.ready = true
	}
	job.dispatchDur = obs.Since(t0)
	return job
}

// dispatch runs the payload stage for one header-decoded job: it assigns
// the sequence number, snapshots the packet's samples and interferer
// geometry out of the ring and queues the payload for a pool worker (a
// header-failed job is forwarded as is). The send blocks when the pool is
// saturated (bounded backpressure).
func (g *Gateway) dispatch(src *ringSource, job decodeJob) {
	t0 := g.m.DispatchTime.Start()
	job.seq = g.seq
	g.seq++
	p := job.pkt
	g.traceHeader(p, job.seq, !job.ready)
	job.pkt = nil
	// The interferers are the tracked packets overlapping p's span. One
	// that started after p keeps the max length, as if packets were
	// decoded whole, one at a time, in start order. A packet outside the
	// span adds no boundary, tone or signature to any of p's windows.
	maxSyms := phy.MaxSymbolCount(g.fcfg.PHY)
	var geo []rx.Packet
	if !job.ready {
		// Private clones of the packet and interferer geometry plus a bulk
		// copy of the packet's samples, so the worker reads without
		// touching the ring.
		geo = make([]rx.Packet, 0, len(g.active))
		geo = append(geo, *p)
		job.others = make([]*rx.Packet, 0, len(g.active)-1)
	}
	collisions := 0
	for _, q := range g.active {
		if q == p {
			continue
		}
		qc := *q
		if qc.Start > p.Start {
			qc.NSymbols = maxSyms
		}
		if !overlaps(g.fcfg, p, &qc) {
			continue
		}
		collisions++
		if !job.ready {
			geo = append(geo, qc)
			job.others = append(job.others, &geo[len(geo)-1])
		}
	}
	g.m.CollisionSize.Observe(float64(collisions))
	if !job.ready {
		job.pkt = &geo[0]
		need := p.End(g.fcfg) - p.Start
		bufp := g.snapPool.Get().(*[]complex128)
		if int64(cap(*bufp)) < need {
			*bufp = make([]complex128, need)
		}
		job.snap = (*bufp)[:need]
		src.Read(job.snap, p.Start)
		job.snapBuf = bufp
		job.snapStart = p.Start
	}
	g.m.DispatchTime.ObserveDuration(job.dispatchDur + obs.Since(t0))
	g.jobs <- job
	g.m.QueueDepth.Set(int64(len(g.jobs)))
}

// traceHeader emits a header-stage trace event (no-op without a tracer).
func (g *Gateway) traceHeader(p *rx.Packet, seq int64, ok bool) {
	if g.tracer == nil {
		return
	}
	g.tracer(obs.Event{
		Kind:     obs.EventHeader,
		PacketID: p.ID,
		Seq:      seq,
		Start:    p.Start,
		SNRdB:    p.SNRdB,
		CFOHz:    p.CFOHz,
		HeaderOK: ok,
		NSymbols: p.NSymbols,
	})
}

// workerState is one pool worker's private arena: the symbol picker plus
// the per-job scratch that the payload path reuses across packets. No
// other goroutine touches it, so the steady-state decode loop performs no
// cross-worker sharing and no per-symbol allocation.
type workerState struct {
	pick    rx.AlternatePicker
	tally   rx.GateTallier  // pick's gate tally; nil when it keeps none
	src     rx.MemorySource // per-job sample view (avoids a heap escape per packet)
	altFlat []uint16        // backing store for all of one packet's ranked alternates
	altIdx  [][]uint16      // per-symbol views into altFlat
}

// worker demodulates payloads from the job queue with a private picker
// and forwards results to the reorder stage.
func (g *Gateway) worker(pick rx.AlternatePicker) {
	defer g.workerWG.Done()
	// Alternate arenas are pre-sized for a typical payload (the caps are
	// soft — a long packet grows them once and they stay grown).
	ws := &workerState{
		pick:    pick,
		altFlat: make([]uint16, 0, 512),
		altIdx:  make([][]uint16, 0, 128),
	}
	ws.tally, _ = pick.(rx.GateTallier)
	for job := range g.jobs {
		g.runJob(ws, job)
	}
}

// runJob decodes one dispatched job and forwards the result. A panic
// here fails the gateway and forwards nothing, so delivery stops at this
// job's sequence number.
func (g *Gateway) runJob(ws *workerState, job decodeJob) {
	g.m.WorkersBusy.Add(1)
	defer g.m.WorkersBusy.Add(-1)
	defer g.recoverFault(siteWorker)
	pkt := job.result
	gates := job.gates // header-phase verdicts tallied at dispatch
	nsyms := 0
	if !job.ready {
		t0 := g.m.DemodTime.Start()
		pkt = g.decodePayload(ws, job)
		g.m.DemodTime.Since(t0)
		if ws.tally != nil {
			gates.Add(ws.tally.TakeGateTally())
		}
		nsyms = job.pkt.NSymbols
		g.snapPool.Put(job.snapBuf)
	}
	if g.intercept != nil {
		pkt = g.intercept(pkt)
	}
	g.results <- seqPacket{
		seq:        job.seq,
		pkt:        pkt,
		id:         job.id,
		headerOK:   !job.ready,
		nsyms:      nsyms,
		gates:      gates,
		detectedAt: job.detectedAt,
		doneAt:     g.m.ReorderWait.Start(),
	}
}

// decodePayload runs payload demodulation for one dispatched packet, with
// the CRC-driven chase pass over the ranked alternates. Those are picker
// scratch, so they are copied into the worker's flat arena before the
// next symbol.
//
//cic:hotpath
func (g *Gateway) decodePayload(ws *workerState, job decodeJob) Packet {
	out := job.result
	ws.src = rx.MemorySource{Base: job.snapStart, Samples: job.snap}
	src := &ws.src
	syms := job.syms
	ws.altFlat = ws.altFlat[:0]
	ws.altIdx = ws.altIdx[:0]
	for s := phy.HeaderSymbolCount; s < job.pkt.NSymbols; s++ {
		ranked := ws.pick.PickSymbolAlternates(src, job.pkt, s, job.others)
		syms = append(syms, ranked[0])
		start := len(ws.altFlat)
		ws.altFlat = append(ws.altFlat, ranked...)
		ws.altIdx = append(ws.altIdx, ws.altFlat[start:len(ws.altFlat):len(ws.altFlat)])
	}
	dec, err := phy.Decode(syms, g.fcfg.PHY) //cic:alloc-ok: sanctioned per-packet boundary — the decoded payload escapes to the caller, so phy.Decode allocates it fresh
	if err == nil && !dec.CRCOK {
		if fixed, ok := rx.ChaseDecode(syms, ws.altIdx, g.fcfg.PHY); ok { //cic:alloc-ok: CRC-recovery cold path — runs only on checksum failure, off the steady-state budget
			dec = fixed
			g.m.ChaseRecovered.Inc()
		}
	}
	if err != nil {
		g.m.CRCFail.Inc()
		return out
	}
	if dec.CRCOK {
		g.m.CRCPass.Inc()
	} else {
		g.m.CRCFail.Inc()
	}
	out.Payload = dec.Payload
	out.OK = dec.CRCOK
	out.FECCorrected = dec.FECCorrected
	return out
}

// reorder delivers worker results on the Packets channel in dispatch
// order. The held map is bounded by the number of jobs in flight, which
// the pool depth bounds in turn. After an emit fault it delivers nothing
// more, but drains results until Close closes it.
func (g *Gateway) reorder() {
	defer close(g.out)
	next := int64(0)
	held := make(map[int64]seqPacket)
	for r := range g.results {
		if next < 0 {
			continue // an emit panicked
		}
		if r.seq != next {
			held[r.seq] = r
			g.m.ReorderHeld.Set(int64(len(held)))
			continue
		}
		for {
			if !g.emit(r) {
				next = -1
				break
			}
			next++
			p, ok := held[next]
			if !ok {
				break
			}
			delete(held, next)
			g.m.ReorderHeld.Set(int64(len(held)))
			r = p
		}
	}
}

// emit delivers one packet in dispatch order and settles its latency
// accounting: time held in the reorder buffer, preamble-detect to emit
// latency, and the emit trace event. It reports false when it panicked,
// which fails the gateway.
func (g *Gateway) emit(r seqPacket) (ok bool) {
	defer g.recoverFault(siteEmit)
	g.m.ReorderWait.Since(r.doneAt)
	g.out <- r.pkt
	g.m.PacketsEmitted.Inc()
	g.m.DecodeLatency.Since(r.detectedAt)
	if g.tracer != nil {
		ev := obs.Event{
			Kind:         obs.EventEmit,
			PacketID:     r.id,
			Seq:          r.seq,
			Start:        r.pkt.Start,
			SNRdB:        r.pkt.SNR,
			CFOHz:        r.pkt.CFO,
			HeaderOK:     r.headerOK,
			NSymbols:     r.nsyms,
			CRCOK:        r.pkt.OK,
			PayloadLen:   len(r.pkt.Payload),
			FECCorrected: r.pkt.FECCorrected,
			Gates:        r.gates,
		}
		if !r.detectedAt.IsZero() {
			ev.Latency = obs.Since(r.detectedAt)
		}
		g.tracer(ev)
	}
	if g.flight != nil {
		gates := r.gates
		g.flight.RecordEvent(obs.FlightEvent{
			Kind:   "emit",
			Packet: r.id,
			CRCOK:  r.pkt.OK,
			Gates:  &gates,
		})
	}
	return true
}

// overlaps reports whether q's span [Start, End) intersects p's.
func overlaps(cfg frame.Config, p, q *rx.Packet) bool {
	return q.Start < p.End(cfg) && q.End(cfg) > p.Start
}

// Config returns the gateway's configuration.
func (g *Gateway) Config() Config { return g.cfg }

// Stats returns a snapshot of the registry attached with WithMetrics; the
// zero Stats when none is attached. Safe to call concurrently with Write.
func (g *Gateway) Stats() Stats { return g.reg.Snapshot() }

// MaxPacketSamples reports the airtime budget (in samples) the gateway
// assumes for an undecoded packet — the ring holds three times this.
func (g *Gateway) MaxPacketSamples() int64 { return g.maxPkt }
