package rx

import (
	"math"
	"slices"

	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/obs"
)

// DetectorOptions tunes preamble detection.
type DetectorOptions struct {
	// DownchirpThreshold: a down-chirp candidate needs a de-chirped peak at
	// least this many times the spectrum's MEAN bin power. A genuine
	// down-chirp concentrates coherently (peak/mean ≈ 2^SF at high SNR)
	// while mismatched data chirps smear into speckle with peak/mean ≈ 10–20,
	// so the mean — unlike the median — is robust to how much of the band
	// the interference occupies. Default 40.
	DownchirpThreshold float64
	// UpchirpThreshold: minimum peak-to-floor ratio for a window to
	// contribute peaks to the up-chirp run matcher. Default 8.
	UpchirpThreshold float64
	// UpchirpRun: number of consecutive symbol windows whose top peaks must
	// agree (±1 bin) for the conventional up-chirp detector. Default 6.
	UpchirpRun int
	// UpchirpTopK: how many peaks per window participate in up-chirp run
	// matching. Default 1 — the conventional receiver searches for "8
	// consecutive peaks with the same frequency" (paper §3), i.e. the
	// global maximum only, which is what collisions and sub-noise SNR
	// defeat (Figs 32–35). Track-based receivers (FTrack) raise this.
	UpchirpTopK int
	// VerifyMinScore: minimum number of preamble/SYNC symbols (of 10) that
	// must demodulate correctly to accept a detection. Default 8: a
	// ±1-symbol misalignment matches at most 7 of 10, so 8 rejects the
	// shifted aliases of a real preamble while tolerating two noise-lost
	// symbols.
	VerifyMinScore int
	// VerifyPeakFactor: a preamble/SYNC symbol counts as matched when the
	// folded power at the expected bin (±1) is at least this many times the
	// spectrum's noise floor. The check is deliberately not max-peak based:
	// under collisions a stronger concurrent transmission legitimately owns
	// the global maximum. Default 12 (≈10.8 dB).
	VerifyPeakFactor float64
	// MaxCFOBins bounds the absolute carrier-frequency-offset hypothesis in
	// LoRa bins during synchronisation; hypotheses beyond it are interferer
	// tones, not our packet. Default 24 (≈23 kHz at SF8/250 kHz).
	MaxCFOBins float64
	// MaxPackets bounds the number of detections per scan (0 = unlimited).
	MaxPackets int
	// Metrics receives the detector's stage counters (scan windows,
	// candidate anchors, verification rejects). Nil disables them.
	Metrics *obs.DecodeMetrics
}

func (o *DetectorOptions) setDefaults() {
	if o.DownchirpThreshold == 0 {
		o.DownchirpThreshold = 40
	}
	if o.UpchirpThreshold == 0 {
		o.UpchirpThreshold = 8
	}
	if o.UpchirpRun == 0 {
		o.UpchirpRun = 6
	}
	if o.UpchirpTopK == 0 {
		o.UpchirpTopK = 1
	}
	if o.VerifyMinScore == 0 {
		o.VerifyMinScore = 8
	}
	if o.VerifyPeakFactor == 0 {
		o.VerifyPeakFactor = 12
	}
	if o.MaxCFOBins == 0 {
		o.MaxCFOBins = 24
	}
	if o.Metrics == nil {
		o.Metrics = obs.Nop()
	}
}

// Detector finds LoRa preambles in a sample stream. It supports both the
// conventional up-chirp search (8 consecutive C0 peaks — used by standard
// LoRa, Choir and FTrack) and CIC's down-chirp search (§5.8), which stays
// clean under collisions because concurrent data symbols do not correlate
// against an up-chirp multiplier.
//
// A Detector is not safe for concurrent use: every scan and refinement
// method works in the struct's scratch arenas (allocation-free per window
// after warm-up); create one Detector per goroutine.
type Detector struct {
	cfg  frame.Config
	opts DetectorOptions
	d    *Demod

	// Scratch arenas, sized at construction (m = samples/symbol, n =
	// chips/symbol) and reused by every scan window so the streaming scan
	// path performs no steady-state allocation. Lifetimes never overlap:
	// each mgrid/fold result is fully consumed before the next window
	// overwrites it.
	win      []complex128 // raw window samples
	dd       []complex128 // de-chirped window
	fftTmp   []complex128 // mgrid FFT destination
	mag      dsp.Spectrum // M-grid power spectrum (len m)
	spec     dsp.Spectrum // N-grid folded spectrum (len n)
	nfTmp    []float64    // NoiseFloorInto workspace
	peaksBuf []dsp.Peak
	counts   []int // up-chirp bin vote histogram (len n), cleared per use
	hyposBuf []int
	bUpsBuf  []float64
	fracsBuf []float64
	ampsBuf  []float64
	snrsBuf  []float64
	want     []int // expected preamble+SYNC symbol values (constant per cfg)

	// Folded spectra and noise floors of the 12 whole-symbol windows the
	// three trial alignments of refineHypothesis verify against.
	vSpec  []dsp.Spectrum
	vFloor []float64

	// Memo of the whole-symbol power spectra transformed since the top of
	// the current resolveCandidates or Synchronize call (see power): the
	// entries' keys, their spectra (memoCap·m values, allocated on the
	// first fill), and the number of fills in this call. Fill i goes to
	// slot i mod memoCap, so the oldest entry is evicted first.
	memoKeys  [memoCap]memoKey
	memoSpec  dsp.Spectrum
	memoFills int

	// Down-chirp anchors found but not yet resolved, carried across
	// range calls (see resolveCandidates). An anchor lies within spread of
	// the window that found it, and align reads no further than reach
	// past it.
	anchors []int64
	spread  int64
	reach   int64

	// Up-chirp run state carried across contiguous ScanUpchirpRange calls:
	// the last UpchirpRun windows and the next window position.
	upHist []upWindow
	upNext int64
}

// NewDetector builds a Detector.
func NewDetector(cfg frame.Config, opts DetectorOptions) (*Detector, error) {
	opts.setDefaults()
	d, err := NewDemod(cfg)
	if err != nil {
		return nil, err
	}
	m := cfg.Chirp.SamplesPerSymbol()
	n := cfg.Chirp.ChipCount()
	x, y := cfg.SyncSymbolValues()
	want := make([]int, 0, frame.PreambleUpchirps+frame.SyncSymbols)
	for i := 0; i < frame.PreambleUpchirps; i++ {
		want = append(want, 0)
	}
	want = append(want, x, y)
	vSpec := make([]dsp.Spectrum, len(want)+2)
	vFlat := make(dsp.Spectrum, len(vSpec)*n)
	for k := range vSpec {
		vSpec[k] = vFlat[k*n : (k+1)*n : (k+1)*n]
	}
	return &Detector{
		cfg:      cfg,
		opts:     opts,
		d:        d,
		win:      make([]complex128, m),
		dd:       make([]complex128, m),
		fftTmp:   make([]complex128, m),
		mag:      make(dsp.Spectrum, m),
		spec:     make(dsp.Spectrum, n),
		nfTmp:    make([]float64, n),
		counts:   make([]int, n),
		peaksBuf: make([]dsp.Peak, 0, 8),
		anchors:  make([]int64, 0, 32),
		// A window's peak bin maps to an anchor offset of at most
		// ±(M/2)·OSR samples. align shifts the anchor at most three times
		// by (MaxCFOBins + N/2)·OSR samples each (a larger shift breaks
		// the CFO budget), then reads up to three symbols past it (the
		// +1-symbol trial's second down-chirp).
		spread:   int64(m * cfg.Chirp.OSR / 2),
		reach:    3*int64(math.Ceil((opts.MaxCFOBins+float64(n)/2)*float64(cfg.Chirp.OSR))) + 3*int64(m),
		hyposBuf: make([]int, 0, 16),
		bUpsBuf:  make([]float64, 0, 4),
		fracsBuf: make([]float64, 0, frame.PreambleUpchirps),
		ampsBuf:  make([]float64, 0, len(want)),
		snrsBuf:  make([]float64, 0, len(want)),
		want:     want,
		vSpec:    vSpec,
		vFloor:   make([]float64, len(vSpec)),
	}, nil
}

// ResolveLag reports how far behind the end of the buffered samples a
// range scan resolves an anchor when its windows trail that end by
// scanLag (see resolveCandidates).
func (det *Detector) ResolveLag(scanLag int64) int64 {
	return max(scanLag+det.spread, det.reach)
}

// dcRegionOffset is the number of whole symbols between the packet start
// and the start of the down-chirp region (8 preamble + 2 SYNC).
const dcRegionOffset = frame.PreambleUpchirps + frame.SyncSymbols

// preStartOf returns the packet-start estimate implied by a down-chirp
// region starting at dcStart.
func preStartOf(dcStart int64, m int) int64 {
	return dcStart - int64(dcRegionOffset*m)
}

// mgrid FFTs the de-chirped window onto the M grid and squares it into dst
// (len m).
//
//cic:hotpath
func (det *Detector) mgrid(dst dsp.Spectrum, dd []complex128) dsp.Spectrum {
	det.d.FFT().ForwardInto(det.fftTmp, dd)
	for i, v := range det.fftTmp {
		dst[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	return dst
}

// memoCap is the number of window spectra the memo keeps. Refining one
// anchor reads a few dozen distinct windows, most of them more than once
// (see docs/PERFORMANCE.md §Detection for the measured hit rates).
const memoCap = 32

// memoKey identifies one memoised window: its first sample, whether it is
// de-chirped down (DechirpDown) or up (Dechirp), and the exact CFO it is
// de-rotated by.
type memoKey struct {
	start int64
	down  bool
	cfoHz float64
}

// resetMemo forgets every memoised spectrum. resolveCandidates and
// Synchronize call it first, so no entry outlives one call over an
// unchanged source: output does not depend on how a stream is chunked
// into calls, nor on what a ring evicts between them.
func (det *Detector) resetMemo() {
	det.memoFills = 0
}

// power returns the M-grid power spectrum of the whole-symbol window at
// start, de-chirped down or up and de-rotated by cfoHz — the read, de-chirp,
// CFO, FFT and square sequence behind align, refineHypothesis and
// downchirpAligned. Repeats of a window within one call are served from a
// FIFO memo of memoCap entries. The result is valid until memoCap further
// windows have been transformed; callers consume it before the next call.
//
//cic:hotpath
func (det *Detector) power(src SampleSource, start int64, down bool, cfoHz float64) dsp.Spectrum {
	m := len(det.win)
	key := memoKey{start, down, cfoHz}
	for i := range min(det.memoFills, memoCap) {
		if det.memoKeys[i] == key {
			return det.memoSpec[i*m : (i+1)*m : (i+1)*m]
		}
	}
	if det.memoSpec == nil {
		det.memoSpec = make(dsp.Spectrum, memoCap*m) //cic:alloc-ok — one-time memo storage, on the first fill so idle detectors pay nothing
	}
	i := det.memoFills % memoCap
	det.memoFills++
	det.memoKeys[i] = key
	src.Read(det.win, start)
	if down {
		det.d.Generator().DechirpDown(det.dd, det.win)
	} else {
		det.d.Generator().Dechirp(det.dd, det.win)
	}
	det.d.ApplyCFO(det.dd, cfoHz)
	return det.mgrid(det.memoSpec[i*m:(i+1)*m:(i+1)*m], det.dd)
}

// ScanDownchirp searches the whole source with CIC's down-chirp method and
// returns verified, deduplicated packets sorted by start.
//
// Each half-symbol-stepped window is multiplied by the up-chirp C0; a
// window inside the preamble's 2.25 down-chirps collapses to a tone whose
// M-grid bin encodes the window/down-chirp misalignment (bin = e/OSR + δ
// for a down-chirp starting e samples after the window), while concurrent
// data up-chirps spread across the band. Candidates are refined and
// verified against the 8 up-chirps and SYNC word behind them.
func (det *Detector) ScanDownchirp(src SampleSource) []*Packet {
	start, end := src.Span()
	det.anchors = det.anchors[:0]
	return det.ScanDownchirpRange(src, start-int64(det.cfg.Chirp.SamplesPerSymbol()), end, nil)
}

// ScanDownchirpRange is ScanDownchirp restricted to the scan windows whose
// positions lie in [start, end) — the incremental entry point used by the
// streaming gateway. Positions sit on a global half-symbol grid, so
// contiguous ranges visit exactly the windows one whole-span scan would.
// Detected packets may begin before start (the preamble extends ~12
// symbols before the down-chirps the scan keys on). tracked lists packets
// the caller already tracks; detections that duplicate them are dropped
// (see resolveCandidates).
//
//cic:hotpath
func (det *Detector) ScanDownchirpRange(src SampleSource, start, end int64, tracked []*Packet) []*Packet {
	m := det.cfg.Chirp.SamplesPerSymbol()
	osr := det.cfg.Chirp.OSR
	gen := det.d.Generator()
	for p := gridCeil(start, int64(m/2)); p < end; p += int64(m / 2) {
		det.opts.Metrics.DetectWindows.Inc()
		src.Read(det.win, p)
		gen.DechirpDown(det.dd, det.win)
		mag := det.mgrid(det.mag, det.dd)
		meanPow := 0.0
		for _, v := range mag {
			meanPow += v
		}
		meanPow /= float64(m)
		peak, bin := mag.Max()
		if meanPow <= 0 || peak < det.opts.DownchirpThreshold*meanPow {
			continue
		}
		// bin = (e/OSR + δ) mod M where e is the down-chirp start relative
		// to the window. Interpret the circle as signed and neglect δ
		// (≤ a few bins, removed during refinement).
		e := bin * osr
		if bin > m/2 {
			e = (bin - m) * osr
		}
		det.anchors = append(det.anchors, p+int64(e))
		det.opts.Metrics.DetectCandidates.Inc()
	}
	return det.resolveCandidates(src, end, tracked)
}

// gridCeil returns the first multiple of grid at or after x.
func gridCeil(x, grid int64) int64 {
	r := x % grid
	if r < 0 {
		r += grid
	}
	if r == 0 {
		return x
	}
	return x - r + grid
}

// upWindow is one symbol-length window's peak set in the up-chirp scan.
type upWindow struct {
	pos   int64
	peaks []dsp.Peak
}

// ScanUpchirp searches with the conventional method: a run of consecutive
// full-symbol windows whose de-chirped top peaks agree on one bin (the
// repeated C0 preamble de-chirps to a constant bin when the window grid is
// fixed). Under collisions, data symbols from concurrent packets clutter
// the per-window peaks (Fig 19) — the failure mode Figs 32–35 measure.
func (det *Detector) ScanUpchirp(src SampleSource) []*Packet {
	start, end := src.Span()
	det.anchors, det.upHist = det.anchors[:0], det.upHist[:0]
	return det.ScanUpchirpRange(src, start-int64(det.cfg.Chirp.SamplesPerSymbol()), end, nil)
}

// ScanUpchirpRange is ScanUpchirp restricted to the windows whose
// positions lie in [start, end), on a global symbol grid. The run history
// carries over when a call continues exactly where the previous one
// stopped, so contiguous calls find the runs one whole-span scan would.
// tracked is as for ScanDownchirpRange.
func (det *Detector) ScanUpchirpRange(src SampleSource, start, end int64, tracked []*Packet) []*Packet {
	m := int64(det.cfg.Chirp.SamplesPerSymbol())
	n := det.cfg.Chirp.ChipCount()
	fft := det.d.FFT()
	gen := det.d.Generator()

	first := gridCeil(start, m)
	history := det.upHist
	if first != det.upNext {
		history = history[:0]
	}
	run := det.opts.UpchirpRun

	p := first
	for ; p < end; p += m {
		det.opts.Metrics.DetectWindows.Inc()
		src.Read(det.win, p)
		gen.Dechirp(det.dd, det.win)
		fft.ForwardInto(det.fftTmp, det.dd)
		dsp.FoldMagnitude(det.spec, det.fftTmp, n, det.cfg.Chirp.OSR)
		floor := dsp.NoiseFloorInto(det.nfTmp, det.spec)
		peaks := dsp.AppendTopPeaks(det.peaksBuf[:0], det.spec, 0.2, det.opts.UpchirpTopK)
		det.peaksBuf = peaks
		// Keep only peaks meaningfully above the floor.
		kept := peaks[:0]
		for _, pk := range peaks {
			if floor <= 0 || pk.Power >= det.opts.UpchirpThreshold*floor {
				kept = append(kept, pk)
			}
		}
		// Only the last run windows matter; the per-window copy
		// allocates, but the conventional scan serves the baselines, not
		// the CIC hot path.
		if len(history) == run {
			history = append(history[:0], history[1:]...)
		}
		history = append(history, upWindow{pos: p, peaks: append([]dsp.Peak(nil), kept...)})
		if len(history) < run {
			continue
		}
		if _, ok := consistentBin(history, n); ok {
			// The run's final window sits inside the preamble; the
			// down-chirp region follows within the next few symbols.
			// Localise it with a bounded down-chirp search, as a real
			// receiver uses the SFD for fine sync.
			if anchor, ok := det.localDownchirp(src, p, 6); ok {
				det.anchors = append(det.anchors, anchor)
				det.opts.Metrics.DetectCandidates.Inc()
				history = history[:0] // avoid re-triggering on this run
			}
		}
	}
	det.upHist, det.upNext = history, p
	return det.resolveCandidates(src, end, tracked)
}

// consistentBin reports whether every window in the run shares a peak bin
// within ±1 (circular) and returns that bin.
func consistentBin(run []upWindow, n int) (int, bool) {
	if len(run) == 0 || len(run[0].peaks) == 0 {
		return 0, false
	}
	for _, cand := range run[0].peaks {
		ok := true
		for _, w := range run[1:] {
			found := false
			for _, pk := range w.peaks {
				d := pk.Bin - cand.Bin
				if d < 0 {
					d = -d
				}
				if d <= 1 || d >= n-1 {
					found = true
					break
				}
			}
			if !found {
				ok = false
				break
			}
		}
		if ok {
			return cand.Bin, true
		}
	}
	return 0, false
}

// localDownchirp searches [from, from+symbols·M) in half-symbol steps for
// the strongest down-chirp tone and returns its estimated chirp start.
func (det *Detector) localDownchirp(src SampleSource, from int64, symbols int) (int64, bool) {
	m := det.cfg.Chirp.SamplesPerSymbol()
	osr := det.cfg.Chirp.OSR
	gen := det.d.Generator()
	bestPower := 0.0
	var bestAnchor int64
	found := false
	for p := from; p < from+int64(symbols*m); p += int64(m / 2) {
		src.Read(det.win, p)
		gen.DechirpDown(det.dd, det.win)
		mag := det.mgrid(det.mag, det.dd)
		meanPow := 0.0
		for _, v := range mag {
			meanPow += v
		}
		meanPow /= float64(m)
		peak, bin := mag.Max()
		if meanPow <= 0 || peak < det.opts.DownchirpThreshold*meanPow {
			continue
		}
		if peak > bestPower {
			e := bin * osr
			if bin > m/2 {
				e = (bin - m) * osr
			}
			bestPower = peak
			bestAnchor = p + int64(e)
			found = true
		}
	}
	return bestAnchor, found
}

// resolveCandidates refines, verifies and deduplicates the pending
// down-chirp anchors of a scan that has covered the windows before end,
// producing new tracked packets sorted by start.
//
// Anchors resolve in ascending order, and one waits until every smaller
// anchor has been found (no window at or past end can yield an anchor
// below end−spread) and every sample align may read is in the source's
// span; it stays pending for a later call until then. A scan reaching the
// end of the span resolves them all. So a run of contiguous range calls
// resolves the same anchors in the same order, over the same samples, as
// one whole-span scan.
//
// One duplicate rule holds within a call and across calls, against the
// caller's tracked packets plus this call's accepts: an anchor within half
// a symbol of a known packet's first down-chirp is skipped before paying
// for refinement, and a synchronized packet whose start lies within half a
// symbol of a known packet's start is dropped (the earlier-known packet
// stays).
//
//cic:hotpath
func (det *Detector) resolveCandidates(src SampleSource, end int64, tracked []*Packet) []*Packet {
	m := int64(det.cfg.Chirp.SamplesPerSymbol())
	_, avail := src.Span()
	final := end >= avail
	det.resetMemo()
	var pkts []*Packet
	slices.Sort(det.anchors)
	done := 0
	for _, anchor := range det.anchors {
		if !final && (anchor >= end-det.spread || anchor+det.reach > avail) {
			break
		}
		done++
		if near(tracked, anchor, dcRegionOffset*m, m/2) || near(pkts, anchor, dcRegionOffset*m, m/2) {
			continue
		}
		pkt, ok := det.align(src, anchor)
		if !ok {
			det.opts.Metrics.DetectRejects.Inc()
			continue
		}
		if near(tracked, pkt.Start, 0, m/2) || near(pkts, pkt.Start, 0, m/2) {
			det.opts.Metrics.DetectDuplicates.Inc()
			continue
		}
		pkts = append(pkts, det.keep(src, pkt)) //cic:alloc-ok — accepted detections escape to the caller
		if det.opts.MaxPackets > 0 && len(pkts) >= det.opts.MaxPackets {
			break
		}
	}
	if final {
		done = len(det.anchors)
	}
	det.anchors = append(det.anchors[:0], det.anchors[done:]...)
	slices.SortFunc(pkts, func(a, b *Packet) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	for i, p := range pkts {
		p.ID = i
	}
	return pkts
}

// near reports whether x lies within tol of some packet's Start+offset.
//
//cic:hotpath
func near(pkts []*Packet, x, offset, tol int64) bool {
	for _, p := range pkts {
		if abs64(x-p.Start-offset) < tol {
			return true
		}
	}
	return false
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// Synchronize refines a coarse down-chirp anchor into an exact packet start
// and CFO estimate, then verifies the preamble. The returned Packet has
// NSymbols unset (0).
//
// Estimation algebra, in LoRa-bin units (one bin = B/2^SF Hz; one chip =
// OSR samples), with e = signal start − window start:
//
//	up-chirp window:   peak at  δ − e/OSR  (mod N)
//	down-chirp window: peak at  δ + e/OSR  (mod M)
//
// so δ = (b_up + b_down)/2 and e = OSR·(b_down − b_up)/2. Because the
// coarse anchor may lock onto the second down-chirp, the final verification
// tries the ±1-symbol shifts and keeps the best-scoring alignment.
//
//cic:hotpath
func (det *Detector) Synchronize(src SampleSource, dcAnchor int64) (*Packet, bool) {
	det.resetMemo()
	pkt, ok := det.align(src, dcAnchor)
	if !ok {
		return nil, false
	}
	return det.keep(src, pkt), true
}

// keep promotes an aligned detection to the heap, then refines its CFO
// estimate.
//
//cic:hotpath
func (det *Detector) keep(src SampleSource, pkt Packet) *Packet {
	p := new(Packet) //cic:alloc-ok — the accepted detection escapes
	*p = pkt
	det.refineEffectiveCFO(src, p)
	return p
}

// align is Synchronize without the final effective-CFO refinement, which
// changes only the CFO estimate, and without the heap copy: a scan pays
// for both only on the packets it keeps.
//
//cic:hotpath
func (det *Detector) align(src SampleSource, dcAnchor int64) (Packet, bool) {
	cfg := det.cfg
	m := cfg.Chirp.SamplesPerSymbol()
	n := cfg.Chirp.ChipCount()

	// Measure the down-chirp tone once at the anchor — concurrent data
	// up-chirps spread under DechirpDown, so its global peak is ours.
	_, at := det.power(src, dcAnchor, true, 0).Max()
	if at < 0 {
		return Packet{}, false
	}

	// Gather up-chirp peak hypotheses from mid-preamble windows. Under
	// collisions the preamble windows contain tones from concurrent
	// transmissions too, each appearing consistently; every recurring bin
	// is a hypothesis, and the CFO budget plus preamble verification pick
	// the right one. The vote histogram is a fixed length-N slice rather
	// than a map, so hypothesis gathering never allocates.
	counts := det.counts
	clear(counts)
	preStart := preStartOf(dcAnchor, m)
	for _, sym := range []int{2, 3, 4, 5} {
		dsp.FoldPower(det.spec, det.power(src, preStart+int64(sym*m), false, 0), n, cfg.Chirp.OSR)
		// The folded spectrum combines each tone's OSR images into one bin,
		// so a handful of strong interferers cannot crowd a weak packet's
		// tone out of the peak list.
		det.peaksBuf = dsp.AppendTopPeaks(det.peaksBuf[:0], det.spec, 0.05, 6)
		for _, pk := range det.peaksBuf {
			// Collapse the OSR images onto the N circle and tolerate ±1 bin
			// of drift between windows (fractional peaks near a bin edge
			// flip sides from window to window).
			b := pk.Bin % n
			counts[(b-1+n)%n]++
			counts[b]++
			counts[(b+1)%n]++
		}
	}
	hypos := det.hyposBuf[:0]
	for bin, c := range counts {
		if c < 3 {
			continue
		}
		// Keep only local maxima of the count histogram so a single tone
		// does not spawn three near-identical hypotheses.
		if counts[(bin-1+n)%n] > c || counts[(bin+1)%n] > c {
			continue
		}
		if counts[(bin+1)%n] == c && counts[(bin-1+n)%n] < c {
			continue // the plateau's other end will represent this tone
		}
		hypos = append(hypos, bin)
	}
	slices.SortFunc(hypos, func(a, b int) int {
		if counts[a] != counts[b] {
			return counts[b] - counts[a]
		}
		return a - b
	})
	det.hyposBuf = hypos
	if len(hypos) > 4 {
		hypos = hypos[:4]
	}

	var best Packet
	found := false
	for _, h := range hypos {
		bUp0 := dsp.WrapToHalf(float64(h), float64(n)/2)
		if pkt, ok := det.refineHypothesis(src, dcAnchor, bUp0); ok && (!found || pkt.Score > best.Score) {
			best, found = pkt, true
		}
	}
	return best, found
}

// refineHypothesis iterates the (δ, ε) solution for one up-chirp bin
// hypothesis, then verifies the resulting alignment (including the ±1
// symbol down-chirp ambiguity).
//
//cic:hotpath
func (det *Detector) refineHypothesis(src SampleSource, dcAnchor int64, bUpHypo float64) (Packet, bool) {
	cfg := det.cfg
	m := cfg.Chirp.SamplesPerSymbol()
	n := cfg.Chirp.ChipCount()
	osr := cfg.Chirp.OSR

	dcStart := dcAnchor
	var cfoBins float64
	expectUp := bUpHypo
	for iter := 0; iter < 3; iter++ {
		mag := det.power(src, dcStart, true, 0)
		var bDown float64
		var pDown float64
		if iter == 0 {
			_, at := mag.Max()
			off, h := dsp.QuadInterp(mag, at)
			bDown, pDown = float64(at)+off, h
		} else {
			// After the previous shift ε ≈ 0, so the tone sits near δ.
			bDown, pDown = nearestPeak(mag, cfoBins, 4)
		}
		if pDown <= 0 {
			return Packet{}, false
		}
		bDownW := dsp.WrapToHalf(bDown, float64(m)/2)

		preStart := preStartOf(dcStart, m)
		bUps := det.bUpsBuf[:0]
		for _, sym := range []int{2, 3, 4, 5} {
			umag := det.power(src, preStart+int64(sym*m), false, 0)
			// Search near the expected bin on both OSR images.
			b1, p1 := nearestPeak(umag, expectUp, 3)
			b2, p2 := nearestPeak(umag, expectUp+float64((osr-1)*n), 3)
			if p2 > p1 {
				b1 = b2 - float64((osr-1)*n)
			}
			bUps = append(bUps, dsp.WrapToHalf(b1, float64(n)/2))
		}
		det.bUpsBuf = bUps
		slices.Sort(bUps)
		bUp := 0.5 * (bUps[1] + bUps[2]) // median of 4
		cfoBins = (bUp + bDownW) / 2
		if math.Abs(cfoBins) > det.opts.MaxCFOBins {
			return Packet{}, false
		}
		epsChips := (bDownW - bUp) / 2
		shift := int64(math.Round(epsChips * float64(osr)))
		dcStart += shift
		// After shifting, ε ≈ 0 and the up-chirp tone is expected at δ.
		expectUp = dsp.WrapToHalf(cfoBins, float64(n)/2)
		if shift == 0 && iter > 0 {
			break
		}
	}

	cfoHz := cfoBins * cfg.Chirp.BinWidth()
	base := preStartOf(dcStart, m)

	// Resolve the which-down-chirp ambiguity: try start shifts of 0, ±1
	// symbol and keep the best verification score. The three alignments
	// verify against the same whole-symbol windows, one apart, so each
	// window is folded once. Trials stay on the stack; only a detection
	// the caller keeps is promoted to the heap (keep), so rejected and
	// duplicate alignments (the common case while scanning) cost nothing.
	for k := range det.vSpec {
		dsp.FoldPower(det.vSpec[k], det.power(src, base+int64((k-1)*m), false, cfoHz), n, osr)
		det.vFloor[k] = dsp.NoiseFloorInto(det.nfTmp, det.vSpec[k])
	}
	var best Packet
	found := false
	for _, shift := range []int{0, -1, 1} {
		trial := Packet{Start: base + int64(shift*m), CFOHz: cfoHz}
		if det.verify(src, &trial, det.vSpec[shift+1:], det.vFloor[shift+1:]) && (!found || trial.Score > best.Score) {
			best, found = trial, true
		}
	}
	return best, found
}

// refineEffectiveCFO measures the residual fractional peak offset over the
// preamble up-chirps at the final alignment and folds it into the packet's
// CFO estimate. Sub-sample timing error and CFO error are observationally
// equivalent for symbol demodulation (both shift every window's tone by a
// constant), so absorbing the residual here makes the packet's own data
// peaks land within a small fraction of a bin — the margin the §5.7
// fractional-CFO candidate filter depends on.
//
//cic:hotpath
func (det *Detector) refineEffectiveCFO(src SampleSource, pkt *Packet) {
	cfg := det.cfg
	m := cfg.Chirp.SamplesPerSymbol()
	d := det.d
	fracs := det.fracsBuf[:0]
	for i := 0; i < frame.PreambleUpchirps; i++ {
		// The verify fill has just transformed these windows at this
		// start and CFO, so power serves them from the memo.
		start := pkt.Start + int64(i*m)
		mag := det.power(src, start, false, pkt.CFOHz)
		// The preamble tone (k=0) should sit at M-grid bin ~0; search ±2
		// bins then zoom.
		pos, pow := nearestPeak(mag, 0, 2)
		if pow <= 0 {
			continue
		}
		ipos := int(math.Round(pos))
		d.LoadWindow(src, start, pkt.CFOHz)
		zpos, _ := dsp.RefinePeak(d.Dechirped(), m, ipos, 16)
		fracs = append(fracs, dsp.WrapToHalf(zpos, float64(m)/2))
	}
	det.fracsBuf = fracs
	if len(fracs) < 3 {
		return
	}
	slices.Sort(fracs)
	med := fracs[len(fracs)/2]
	if math.Abs(med) < 1.5 {
		pkt.CFOHz += med * cfg.Chirp.BinWidth()
	}
}

// nearestPeak finds the strongest bin within ±radius (circular) of the
// expected fractional position and refines it, returning position and
// power.
//
//cic:hotpath
func nearestPeak(mag dsp.Spectrum, expect float64, radius int) (float64, float64) {
	m := len(mag)
	center := int(math.Round(expect))
	bestBin, bestPow := -1, 0.0
	for d := -radius; d <= radius; d++ {
		b := ((center+d)%m + m) % m
		if mag[b] > bestPow {
			bestPow, bestBin = mag[b], b
		}
	}
	if bestBin < 0 {
		return expect, 0
	}
	off, h := dsp.QuadInterp(mag, bestBin)
	pos := float64(bestBin) + off
	// Report the position on the same unwrapped sheet as the expectation.
	if diff := pos - expect; diff > float64(m)/2 {
		pos -= float64(m)
	} else if diff < -float64(m)/2 {
		pos += float64(m)
	}
	return pos, h
}

// verify scores the 8 preamble up-chirps and 2 SYNC symbols of pkt, given
// their folded spectra (de-chirped with the packet's timing and CFO) and
// noise floors; it estimates the reference peak amplitude and SNR, and
// accepts when the score reaches VerifyMinScore.
//
//cic:hotpath
func (det *Detector) verify(src SampleSource, pkt *Packet, specs []dsp.Spectrum, floors []float64) bool {
	n := det.cfg.Chirp.ChipCount()

	score := 0
	amps := det.ampsBuf[:0]
	snrs := det.snrsBuf[:0]
	for i, w := range det.want {
		spec := specs[i]
		// Check the expected bin (±1) against the noise floor instead of
		// requiring the global maximum: under collisions a stronger
		// concurrent transmission legitimately owns the global peak.
		peak := spec[w]
		if up := spec[(w+1)%n]; up > peak {
			peak = up
		}
		if dn := spec[(w-1+n)%n]; dn > peak {
			peak = dn
		}
		nf := floors[i]
		if nf > 0 && peak >= det.opts.VerifyPeakFactor*nf {
			score++
			amps = append(amps, math.Sqrt(peak))
			snrs = append(snrs, dsp.DB(peak/nf))
		}
	}
	det.ampsBuf, det.snrsBuf = amps, snrs
	pkt.Score = score
	if score < det.opts.VerifyMinScore {
		return false
	}
	// Mandatory down-chirp gate: up-chirp windows cannot distinguish the
	// degenerate alias family (δ + k·binWidth, ε − k·OSR samples), which
	// produces identical up-chirp peaks for any integer k. The down-chirp
	// tone moves the *other* way (δ + ε/OSR), so a genuine, aligned packet
	// must show it within ±2 bins of zero after CFO correction.
	if !det.downchirpAligned(src, pkt) {
		return false
	}
	pkt.PeakAmp = dsp.Mean(amps)
	pkt.SNRdB = dsp.Mean(snrs)
	return true
}

// downchirpAligned checks that BOTH whole down-chirps of the preamble
// de-chirp (against C0, with CFO removed) to a strong tone at M-grid bin
// 0±2. Checking both defeats aliases that place only one window over
// genuinely down-chirping samples.
//
//cic:hotpath
func (det *Detector) downchirpAligned(src SampleSource, pkt *Packet) bool {
	m := det.cfg.Chirp.SamplesPerSymbol()
	var peaks [frame.DownchirpsWhole]float64
	for dc := 0; dc < frame.DownchirpsWhole; dc++ {
		mag := det.power(src, pkt.Start+int64((dcRegionOffset+dc)*m), true, pkt.CFOHz)
		meanPow := 0.0
		for _, v := range mag {
			meanPow += v
		}
		meanPow /= float64(m)
		peak, at := mag.Max()
		if meanPow > 0 && peak < 10*meanPow {
			return false
		}
		if at > 2 && at < m-2 {
			return false
		}
		peaks[dc] = peak
	}
	// Both down-chirps must carry comparable tone power: a ±1-symbol alias
	// places one window over a full down-chirp but the other over only the
	// 0.25 fraction (1/16 of the power).
	if peaks[1] < peaks[0]/4 || peaks[0] < peaks[1]/4 {
		return false
	}
	return true
}
