package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/rx"
)

// Demodulator decodes symbols of one packet amid collisions. It is not
// safe for concurrent use; create one per worker goroutine (demodulation is
// allocation-light after construction).
type Demodulator struct {
	cfg  frame.Config
	opts Options
	d    *rx.Demod

	// scratch — every per-symbol working set lives here so the steady
	// state of a worker allocates nothing (see docs/PERFORMANCE.md for
	// the arena ownership rules). The Candidate buffers are distinct
	// because their users overlap: filterCFO and filterPower both read
	// the same input set, and the intersection of their outputs must
	// survive while both are alive.
	acc      dsp.Spectrum
	sub      dsp.Spectrum
	full     dsp.Spectrum
	fullX    []complex128  // full window's complex spectrum (suffix identity)
	splitX   []complex128  // one boundary's prefix, then suffix, spectrum
	probe    *dsp.BinProbe // SED edge powers at one candidate bin
	boundsB  []int
	peaksBuf []dsp.Peak
	candBuf  []Candidate
	cfoBuf   []Candidate
	powBuf   []Candidate
	gateBuf  []Candidate
	tonesBuf []float64
	sigsBuf  []float64
	altBuf   []uint16
	refAmp   float64 // current packet's preamble amplitude (set per symbol)

	// tally accumulates the gate verdicts since the last TakeGateTally —
	// plain (non-atomic) fields, private to this demodulator's goroutine;
	// the global atomic counters live in opts.Metrics.
	tally obs.GateCounts
}

// NewDemodulator builds a CIC demodulator.
func NewDemodulator(cfg frame.Config, opts Options) (*Demodulator, error) {
	opts.setDefaults()
	d, err := rx.NewDemod(cfg)
	if err != nil {
		return nil, err
	}
	n := cfg.Chirp.ChipCount()
	m := cfg.Chirp.SamplesPerSymbol()
	probe, err := dsp.NewBinProbe(n, cfg.Chirp.OSR)
	if err != nil {
		return nil, err
	}
	// Candidate scratch is pre-sized to the caps so a fresh demodulator's
	// first symbols don't pay warm-up growth on the hot path (the caps
	// bound every append below; growth remains possible but is not
	// expected).
	return &Demodulator{
		cfg:      cfg,
		opts:     opts,
		d:        d,
		acc:      make(dsp.Spectrum, n),
		sub:      make(dsp.Spectrum, n),
		full:     make(dsp.Spectrum, n),
		fullX:    make([]complex128, m),
		splitX:   make([]complex128, m),
		probe:    probe,
		boundsB:  make([]int, 0, 4*maxBoundaries),
		peaksBuf: make([]dsp.Peak, 0, maxCandidates),
		candBuf:  make([]Candidate, 0, maxCandidates),
		cfoBuf:   make([]Candidate, 0, maxCandidates),
		powBuf:   make([]Candidate, 0, maxCandidates),
		gateBuf:  make([]Candidate, 0, maxCandidates),
		tonesBuf: make([]float64, 0, 16),
		sigsBuf:  make([]float64, 0, 16),
		altBuf:   make([]uint16, 0, 8),
	}, nil
}

// TakeGateTally returns the gate verdicts accumulated since the previous
// call and resets the tally. The gateway, which decodes one packet per
// demodulator pass, uses it to attribute gate activity to individual
// packets.
func (dm *Demodulator) TakeGateTally() obs.GateCounts {
	t := dm.tally
	dm.tally = obs.GateCounts{}
	return t
}

// BoundariesIn returns the sample offsets (strictly inside (0, M)) at which
// interferer q has a symbol boundary within the window [winStart,
// winStart+M). The preamble up-chirps and SYNC symbols transition on the
// grid q.Start + k·M; the 2.25 down-chirps shift the data grid to
// q.Start + 12.25·M + j·M.
func BoundariesIn(cfg frame.Config, q *rx.Packet, winStart int64) []int {
	out := appendBoundariesIn(nil, cfg, q, winStart)
	if len(out) == 0 {
		return nil
	}
	sort.Ints(out)
	// Deduplicate (the junction may coincide with a grid point).
	uniq := out[:0]
	for i, v := range out {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// appendBoundariesIn is BoundariesIn appending into dst, unsorted and
// without per-interferer deduplication: CollectBoundaries sorts the merged
// set of all interferers anyway, and its one-chip coalescing subsumes the
// dedup, so the hot path skips both.
//
//cic:hotpath
func appendBoundariesIn(dst []int, cfg frame.Config, q *rx.Packet, winStart int64) []int {
	m := int64(cfg.Chirp.SamplesPerSymbol())
	end := winStart + m
	out := dst
	qEnd := q.End(cfg)
	if q.Start >= end || qEnd <= winStart {
		return out
	}
	add := func(t int64) {
		if t > winStart && t < end {
			out = append(out, int(t-winStart))
		}
	}
	// Preamble grid: boundaries at q.Start + k·M up to the data start.
	preEnd := q.DataStart(cfg)
	k0 := (winStart - q.Start) / m
	if k0 < 1 {
		k0 = 1
	}
	for k := k0 - 1; ; k++ {
		t := q.Start + k*m
		if t > preEnd || t >= end {
			break
		}
		add(t)
	}
	// The preamble/data junction itself (down-chirps end mid-grid).
	add(preEnd)
	// Data grid: boundaries at DataStart + j·M up to the packet end.
	j0 := (winStart - preEnd) / m
	if j0 < 1 {
		j0 = 1
	}
	for j := j0 - 1; ; j++ {
		t := preEnd + j*m
		if t > qEnd || t >= end {
			break
		}
		add(t)
	}
	return out
}

// CollectBoundaries merges the boundaries of all interferers inside the
// window, coalescing boundaries closer than one chip (they cancel at
// indistinguishable resolution anyway) and capping the count.
//
//cic:hotpath
func (dm *Demodulator) CollectBoundaries(winStart int64, others []*rx.Packet) []int {
	dm.boundsB = dm.boundsB[:0]
	for _, q := range others {
		dm.boundsB = appendBoundariesIn(dm.boundsB, dm.cfg, q, winStart)
	}
	sort.Ints(dm.boundsB)
	osr := dm.cfg.Chirp.OSR
	merged := dm.boundsB[:0]
	for i, b := range dm.boundsB {
		if i == 0 || b-merged[len(merged)-1] >= osr {
			merged = append(merged, b)
		}
	}
	if len(merged) > maxBoundaries {
		merged = merged[:maxBoundaries]
	}
	return merged
}

// Candidate is one surviving frequency-bin hypothesis for a symbol.
type Candidate struct {
	Bin      int     // local-maximum bin on the intersected spectrum
	Pos      float64 // refined full-spectrum peak position (folded bins)
	Power    float64 // intersected-spectrum power
	FullAmp  float64 // peak amplitude on the full-symbol spectrum
	FracBins float64 // distance of Pos from its nearest integer bin
	SED      float64 // spectral edge difference (set when SED runs)
	Score    float64 // composite SED/CFO/power score, lower is better (set when SED runs)
}

// Value returns the symbol value this candidate decodes to: the nearest
// integer bin to the refined position, folded onto [0, 2^SF).
func (c Candidate) Value(n int) int {
	v := int(math.Round(c.Pos)) % n
	if v < 0 {
		v += n
	}
	return v
}

// PickSymbol implements rx.SymbolPicker.
func (dm *Demodulator) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	return dm.DemodulateSymbol(src, pkt, symIdx, others)
}

// PickSymbolAlternates implements rx.AlternatePicker: it returns the
// surviving candidates' symbol values best-first, so the pipeline's
// CRC-driven chase pass can retry the runner-up on marginal symbols.
// The first value is the one DemodulateSymbol picks (including the
// edge-window bin vote); the rest follow in the score order the pick
// itself used, from the same single gate/SED pass.
// The returned slice is demodulator scratch, valid only until the next
// PickSymbolAlternates call (per the rx.AlternatePicker contract);
// callers that accumulate alternates across symbols copy the values out.
//
//cic:hotpath
func (dm *Demodulator) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) []uint16 {
	cands, bounds := dm.symbolCandidates(src, pkt, symIdx, others)
	best, ranked := dm.pick(cands, pkt)
	out := append(dm.altBuf[:0], uint16(dm.refineBinVote(best, bounds)))
	// Every survivor's score (or, without SED, its power) is already
	// known: sort on it, never rescore.
	if dm.opts.DisableSED {
		slices.SortFunc(ranked, func(a, b Candidate) int { return cmp.Compare(b.Power, a.Power) })
	} else {
		slices.SortFunc(ranked, func(a, b Candidate) int { return cmp.Compare(a.Score, b.Score) })
	}
	n := dm.cfg.Chirp.ChipCount()
	for _, c := range ranked {
		v := uint16(c.Value(n))
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	dm.altBuf = out
	return out
}

// DemodulateSymbol decodes data symbol symIdx of pkt, cancelling the
// interferers listed in others. It returns the chosen bin value.
//
//cic:hotpath
func (dm *Demodulator) DemodulateSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	cands, bounds := dm.symbolCandidates(src, pkt, symIdx, others)
	best, _ := dm.pick(cands, pkt)
	return uint16(dm.refineBinVote(best, bounds))
}

// symbolCandidates loads data symbol symIdx of pkt and runs the stages up
// to the candidate set: ICSS intersection over the interferers'
// boundaries, candidate extraction and the tracker-informed exclusions.
// It returns the candidates and the boundaries the bin vote needs.
//
//cic:hotpath
func (dm *Demodulator) symbolCandidates(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) ([]Candidate, []int) {
	dm.opts.Metrics.SymbolsDemodulated.Inc()
	winStart := pkt.SymbolStart(dm.cfg, symIdx)
	dm.refAmp = pkt.PeakAmp
	dm.d.LoadWindow(src, winStart, pkt.CFOHz)
	bounds := dm.CollectBoundaries(winStart, others)
	cands := dm.candidates(dm.intersectICSS(bounds))
	cands = dm.excludeKnownTones(cands, pkt, winStart, others)
	return dm.excludeInterfererSignatures(cands, pkt, winStart, others), bounds
}

// refineBinVote refines the winning candidate's integer bin by majority
// vote over three DTFT position estimates: the full window and the two
// boundary-delimited edge sub-windows (which exclude C_next and C_prev
// interference respectively). A partially-cancelled interferer adjacent to
// the true tone biases any single position estimate by up to a bin. Each
// interfering symbol is absent from one edge sub-window, so the vote
// recovers the true bin whenever at least two estimates are
// uncontaminated.
//
//cic:hotpath
func (dm *Demodulator) refineBinVote(best Candidate, bounds []int) int {
	n := dm.cfg.Chirp.ChipCount()
	m := dm.cfg.Chirp.SamplesPerSymbol()
	v := best.Value(n)
	if len(bounds) == 0 {
		return v
	}
	first, last := bounds[0], bounds[len(bounds)-1]
	minSpan := m / 4 // edge estimates need enough span to refine to ±½ bin
	var edges [2]int
	nEdges := 0
	dech := dm.d.Dechirped()
	for _, w := range [2]struct{ from, to int }{{0, first}, {last, m}} {
		if w.to-w.from < minSpan {
			continue
		}
		edges[nEdges] = refineWindowed(dech[w.from:w.to], m, best.Pos, dm.cfg.Chirp.OSR, n)
		nEdges++
	}
	// Majority over {v, edges…}: with at most three voters the only way a
	// bin outvotes the full-window estimate v is both edges agreeing on a
	// different bin; every other split leaves v with the (tie-preferred)
	// plurality.
	if nEdges == 2 && edges[0] == edges[1] {
		return edges[0]
	}
	return v
}

// refineWindowed estimates the integer bin of a tone near approxPos using
// only the samples of a sub-window. The DTFT magnitude is invariant to the
// sub-window's offset from the symbol start (the offset contributes a
// constant phase per probe position), so the probe uses the sub-window
// samples directly. Probing runs over a ±1.5-bin grid at 1/8-bin steps on
// both OSR images via the two-stage strided search.
//
//cic:hotpath
func refineWindowed(sub []complex128, m int, approxPos float64, osr, n int) int {
	loPos, loPow, hiPos, hiPow := dsp.SearchFineGridPair(sub, m, approxPos, (osr-1)*n, 12, 1.0/8)
	best, bestBin := math.Inf(-1), int(math.Round(approxPos))
	for _, img := range [2][2]float64{{loPos, loPow}, {hiPos, hiPow}} {
		if img[1] > best {
			best = img[1]
			bestBin = int(math.Round(img[0])) % n
			if bestBin < 0 {
				bestBin += n
			}
		}
	}
	return bestBin
}

// KnownPreambleTone predicts the folded bin (fractional) at which
// interferer q's preamble or SYNC region appears inside the window starting
// at winStart, de-chirped with pkt's CFO correction. ok is false when q's
// preamble/SYNC does not overlap the window. A misaligned continuous
// up-chirp stream is a constant tone — it has no symbol transitions, so CIC
// cannot cancel it and SED reads it as uniform; but its position is fully
// determined by the tracker state, so it can simply be excluded from
// candidacy.
func KnownPreambleTone(cfg frame.Config, pkt, q *rx.Packet, winStart int64) (float64, bool) {
	m := int64(cfg.Chirp.SamplesPerSymbol())
	upEnd := q.Start + int64((frame.PreambleUpchirps+frame.SyncSymbols)*int(m))
	if q.Start >= winStart+m || upEnd <= winStart {
		return 0, false
	}
	n := cfg.Chirp.ChipCount()
	osr := cfg.Chirp.OSR
	e := ((q.Start-winStart)%m + m) % m
	delta := (q.CFOHz - pkt.CFOHz) / cfg.Chirp.BinWidth()
	base := -float64(e)/float64(osr) + delta
	// Which of q's symbols covers most of the window? If the overlap is the
	// SYNC region the tone shifts by the sync symbol value.
	mid := winStart + m/2
	symIdx := (mid - q.Start) / m
	shift := 0.0
	x, y := cfg.SyncSymbolValues()
	switch symIdx {
	case int64(frame.PreambleUpchirps):
		shift = float64(x)
	case int64(frame.PreambleUpchirps + 1):
		shift = float64(y)
	}
	bin := math.Mod(base+shift, float64(n))
	if bin < 0 {
		bin += float64(n)
	}
	return bin, true
}

// excludeKnownTones removes candidates that sit on a tracked interferer's
// preamble/SYNC tone (within 1.2 bins — covering both estimation error and
// the tone's own lobe), keeping at least one candidate.
//
//cic:hotpath
func (dm *Demodulator) excludeKnownTones(cands []Candidate, pkt *rx.Packet, winStart int64, others []*rx.Packet) []Candidate {
	if len(cands) <= 1 {
		return cands
	}
	n := float64(dm.cfg.Chirp.ChipCount())
	tones := dm.tonesBuf[:0]
	for _, q := range others {
		if t, ok := KnownPreambleTone(dm.cfg, pkt, q, winStart); ok {
			tones = append(tones, t)
		}
	}
	dm.tonesBuf = tones
	if len(tones) == 0 {
		return cands
	}
	// In-place filter: kept writes strictly behind the read cursor, and the
	// no-survivor fallback returns cands before anything was overwritten.
	kept := cands[:0]
	for _, c := range cands {
		hit := false
		for _, t := range tones {
			if math.Abs(dsp.WrapToHalf(c.Pos-t, n/2)) < 1.2 {
				hit = true
				break
			}
		}
		if !hit {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return cands
	}
	return kept
}

// InterfererSignature returns the fractional-bin offset at which every data
// tone of interferer q appears in pkt's de-chirped windows. Both C_prev and
// C_next of q share one signature: their apparent positions are
// k ± τ_q/OSR + δrel, and τ_q (mod OSR) plus the CFO difference fix the
// fractional part regardless of k. ok is false when q's data region does
// not overlap the window. This is the §5.7 CFO filter taken to its
// tracker-informed conclusion: the receiver knows each transmission's CFO
// and boundary phase from its preamble, so a candidate sitting on another
// transmission's fractional grid is an interfering symbol.
func InterfererSignature(cfg frame.Config, pkt, q *rx.Packet, winStart int64) (float64, bool) {
	m := int64(cfg.Chirp.SamplesPerSymbol())
	dataStart := q.DataStart(cfg)
	if q.End(cfg) <= winStart || dataStart >= winStart+m {
		return 0, false
	}
	osr := float64(cfg.Chirp.OSR)
	tau := float64(((dataStart-winStart)%m + m) % m)
	delta := (q.CFOHz - pkt.CFOHz) / cfg.Chirp.BinWidth()
	frac := math.Mod(-tau/osr+delta, 1)
	return dsp.WrapToHalf(frac, 0.5), true
}

// excludeInterfererSignatures drops candidates whose fractional offset
// matches a tracked interferer's data-tone signature while clearly not
// matching our own grid (fractional ≈ 0 after CFO correction). At least one
// candidate is always kept.
//
//cic:hotpath
func (dm *Demodulator) excludeInterfererSignatures(cands []Candidate, pkt *rx.Packet, winStart int64, others []*rx.Packet) []Candidate {
	if len(cands) <= 1 || dm.opts.DisableCFOFilter {
		return cands
	}
	sigs := dm.sigsBuf[:0]
	for _, q := range others {
		if s, ok := InterfererSignature(dm.cfg, pkt, q, winStart); ok {
			// Signatures indistinguishable from our own grid cannot be
			// used for exclusion.
			if math.Abs(s) > 2*cfoToleranceBins {
				sigs = append(sigs, s)
			}
		}
	}
	dm.sigsBuf = sigs
	if len(sigs) == 0 {
		return cands
	}
	// In-place filter, same aliasing contract as excludeKnownTones.
	kept := cands[:0]
	for _, c := range cands {
		hit := false
		if math.Abs(c.FracBins) > cfoToleranceBins {
			for _, s := range sigs {
				if math.Abs(dsp.WrapToHalf(c.FracBins-s, 0.5)) < cfoToleranceBins/2 {
					hit = true
					break
				}
			}
		}
		if !hit {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		return cands
	}
	return kept
}

// IntersectedSpectrum exposes the post-cancellation spectrum for the loaded
// window (used by the figure harness). The caller owns the returned copy.
func (dm *Demodulator) IntersectedSpectrum(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) dsp.Spectrum {
	winStart := pkt.SymbolStart(dm.cfg, symIdx)
	dm.d.LoadWindow(src, winStart, pkt.CFOHz)
	bounds := dm.CollectBoundaries(winStart, others)
	return append(dsp.Spectrum(nil), dm.intersectICSS(bounds)...)
}

// intersectICSS computes the spectral intersection over the ICSS for the
// currently loaded window (Eqn 12), leaving the result in dm.acc. It also
// fills dm.full with the full-symbol spectrum (un-normalised).
//
//cic:hotpath
func (dm *Demodulator) intersectICSS(bounds []int) dsp.Spectrum {
	m := dm.cfg.Chirp.SamplesPerSymbol()
	// Full symbol spectrum: keep the complex transform for the suffix
	// identity and an un-normalised fold for the power filter, then seed
	// the accumulator with its normalised form.
	dm.d.FFT().ForwardWindowed(dm.fullX, dm.d.Dechirped(), 0, m)
	dsp.FoldMagnitude(dm.full, dm.fullX, dm.cfg.Chirp.ChipCount(), dm.cfg.Chirp.OSR)
	copy(dm.acc, dm.full)
	dm.acc.Normalize()

	minSpan := int(minSubSymbolFrac * float64(m))
	nSub := 0
	if dm.opts.Strawman {
		// Strawman ICSS: {r_{1→2}, r_{N→N+1}} only.
		if len(bounds) > 0 {
			nSub += dm.intersectSplit(bounds[0], minSpan, true, false)
			nSub += dm.intersectSplit(bounds[len(bounds)-1], minSpan, false, true)
		}
	} else {
		// The pair r_{1→i}, r_{i→N+1} cancels the transmission whose
		// boundary sits at b, each at its best achievable resolution (§5.4).
		for _, b := range bounds {
			nSub += dm.intersectSplit(b, minSpan, true, true)
		}
	}
	dm.opts.Metrics.ICSSSubSymbols.Add(int64(nSub))
	return dm.acc
}

// intersectSplit intersects into dm.acc the prefix r_{1→i} (when pre) and
// the suffix r_{i→N+1} (when suf) of the window split at boundary b, and
// returns how many it used. Sub-symbols below the minimum span are
// skipped: they cannot resolve the interferer they would cancel, and
// their noise-dominated spectra degrade the intersection. Both windows
// are rectangular on the same zero-padded grid, so the suffix's complex
// spectrum is the full window's minus the prefix's: one FFT per boundary.
//
//cic:hotpath
func (dm *Demodulator) intersectSplit(b, minSpan int, pre, suf bool) int {
	pre = pre && b >= minSpan
	suf = suf && dm.cfg.Chirp.SamplesPerSymbol()-b >= minSpan
	if !pre && !suf {
		return 0
	}
	n, osr := dm.cfg.Chirp.ChipCount(), dm.cfg.Chirp.OSR
	x := dm.splitX
	dm.d.FFT().ForwardWindowed(x, dm.d.Dechirped(), 0, b)
	used := 0
	if pre {
		dsp.IntersectFold(dm.acc, dm.sub, nil, x, n, osr)
		used++
	}
	if suf {
		dsp.IntersectFold(dm.acc, dm.sub, dm.fullX, x, n, osr)
		used++
	}
	return used
}

// candidates extracts candidate bins from the intersected spectrum and
// annotates them with full-spectrum amplitude and fractional offset. The
// returned slice is the demodulator's candidate arena, valid until the
// next call.
//
//cic:hotpath
func (dm *Demodulator) candidates(spec dsp.Spectrum) []Candidate {
	dm.peaksBuf = dsp.AppendTopPeaks(dm.peaksBuf[:0], spec, candidateFraction, maxCandidates)
	peaks := dm.peaksBuf
	cands := dm.candBuf[:0]
	m := dm.cfg.Chirp.SamplesPerSymbol()
	n := dm.cfg.Chirp.ChipCount()
	osr := dm.cfg.Chirp.OSR
	dech := dm.d.Dechirped()
	zoom := cfoZoom
	steps := int(1.2 * float64(zoom))
	for _, p := range peaks {
		c := Candidate{Bin: p.Bin, Power: p.Power}
		// Refine the position on both M-grid images of this folded bin over
		// ±1.2 bins (the genuine tone may sit a full bin away from the
		// intersected spectrum's local maximum when interference skews the
		// lobe) and keep the stronger refined peak. Selecting the image
		// *after* refinement matters: at an off-by-one bin the weak image's
		// wider lobe out-powers the strong image's narrow one, and refining
		// on the weak image would re-centre on blur instead of the tone.
		loPos, loPow, hiPos, hiPow := dsp.SearchFineGridPair(dech, m, float64(p.Bin), (osr-1)*n, steps, 1/float64(zoom))
		pos, pow, weak := loPos, loPow, hiPow
		if hiPow > loPow {
			pos, pow, weak = hiPos, hiPow, loPow
		}
		folded := math.Mod(pos, float64(n))
		if folded < 0 {
			folded += float64(n)
		}
		c.Pos = folded
		c.FracBins = pos - math.Round(pos)
		// Amplitude from the refined (de-scalloped) strong image plus the
		// weak image's refined peak, summed as amplitudes to match the
		// coherent folding convention used for the preamble reference.
		c.FullAmp = math.Sqrt(pow) + math.Sqrt(weak)
		cands = append(cands, c)
	}
	// Candidates whose refined positions round to the same value are
	// duplicates (adjacent local maxima of one broadened lobe): keep the
	// one with the strongest intersected power.
	dm.candBuf = cands
	dedup := cands[:0]
	for _, c := range cands {
		dup := false
		for j := range dedup {
			if dedup[j].Value(n) == c.Value(n) {
				dup = true
				if c.Power > dedup[j].Power {
					dedup[j] = c
				}
				break
			}
		}
		if !dup {
			dedup = append(dedup, c)
		}
	}
	return dedup
}

// pick applies the §5.6–§5.7 pipeline once per symbol: CFO filter, power
// filter, then SED; falling back to the strongest intersected peak when a
// stage eliminates everything. It returns the winner and the survivor set
// it was chosen from — scored when SED ran — so the ranked alternates
// reuse this pass instead of repeating it. The survivor set is
// demodulator scratch, valid until the next call.
//
//cic:hotpath
func (dm *Demodulator) pick(cands []Candidate, pkt *rx.Packet) (Candidate, []Candidate) {
	if len(cands) == 0 {
		return Candidate{}, cands
	}
	if len(cands) == 1 {
		return cands[0], cands
	}
	filtered := dm.gate(cands, pkt)
	if len(filtered) == 1 {
		return filtered[0], filtered
	}
	if !dm.opts.DisableSED {
		best := dm.selectBySED(filtered)
		dm.countGate(&dm.tally.SEDAccept, &dm.tally.SEDReject,
			dm.opts.Metrics.SEDAccept, dm.opts.Metrics.SEDReject,
			1, len(filtered))
		return best, filtered
	}
	// No SED: strongest surviving intersected peak.
	best := filtered[0]
	for _, c := range filtered[1:] {
		if c.Power > best.Power {
			best = c
		}
	}
	return best, filtered
}

// gate runs the §5.7 CFO and power filters over cands, counting their
// verdicts, and returns the survivors. Gate policy: prefer candidates
// passing both filters; when the gates conflict, trust the power gate
// first (Fig 36: received power is the stronger discriminator), then the
// CFO gate, then give up filtering.
//
//cic:hotpath
func (dm *Demodulator) gate(cands []Candidate, pkt *rx.Packet) []Candidate {
	cfoSet := cands
	if !dm.opts.DisableCFOFilter {
		cfoSet = dm.filterCFO(cands)
		dm.countGate(&dm.tally.CFOAccept, &dm.tally.CFOReject,
			dm.opts.Metrics.CFOAccept, dm.opts.Metrics.CFOReject,
			len(cfoSet), len(cands))
	}
	powSet := cands
	if !dm.opts.DisablePowerFilter {
		powSet = dm.filterPower(cands, pkt)
		dm.countGate(&dm.tally.PowerAccept, &dm.tally.PowerReject,
			dm.opts.Metrics.PowerAccept, dm.opts.Metrics.PowerReject,
			len(powSet), len(cands))
	}
	switch both := dm.intersectCands(cfoSet, powSet); {
	case len(both) > 0:
		return both
	case !dm.opts.DisablePowerFilter && len(powSet) > 0:
		return powSet
	case !dm.opts.DisableCFOFilter && len(cfoSet) > 0:
		return cfoSet
	}
	return cands
}

// countGate records one gate's verdict over a candidate set: accepted of
// total examined pass, the rest are rejects. It feeds both the private
// per-packet tally and the shared atomic counters.
func (dm *Demodulator) countGate(tallyAcc, tallyRej *int64, acc, rej *obs.Counter, accepted, total int) {
	*tallyAcc += int64(accepted)
	*tallyRej += int64(total - accepted)
	acc.Add(int64(accepted))
	rej.Add(int64(total - accepted))
}

// intersectCands returns candidates present (by Bin) in both sets, in the
// demodulator's gate arena (valid until the next call).
//
//cic:hotpath
func (dm *Demodulator) intersectCands(a, b []Candidate) []Candidate {
	out := dm.gateBuf[:0]
	for _, x := range a {
		for _, y := range b {
			if x.Bin == y.Bin {
				out = append(out, x)
				break
			}
		}
	}
	dm.gateBuf = out
	return out
}

// filterCFO keeps candidates whose fractional peak offset (the residual
// CFO after correcting with the packet's own estimate) is within tolerance
// — interfering symbols carry other transmitters' CFOs plus the
// boundary-offset shift Δf (Eqn 10), which is generically off-grid.
//
//cic:hotpath
func (dm *Demodulator) filterCFO(cands []Candidate) []Candidate {
	// Writes dm.cfoBuf (not cands in place): filterPower reads the same
	// input set afterwards, so the input must survive this filter.
	out := dm.cfoBuf[:0]
	for _, c := range cands {
		if math.Abs(c.FracBins) <= cfoToleranceBins {
			out = append(out, c)
		}
	}
	dm.cfoBuf = out
	return out
}

// filterPower keeps candidates whose full-spectrum peak amplitude is within
// powerToleranceDB of the packet's preamble-estimated amplitude.
//
//cic:hotpath
func (dm *Demodulator) filterPower(cands []Candidate, pkt *rx.Packet) []Candidate {
	if pkt.PeakAmp <= 0 {
		return cands
	}
	out := dm.powBuf[:0]
	for _, c := range cands {
		if c.FullAmp <= 0 {
			continue
		}
		dev := math.Abs(20 * math.Log10(c.FullAmp/pkt.PeakAmp))
		if dev <= powerToleranceDB {
			out = append(out, c)
		}
	}
	dm.powBuf = out
	return out
}

// selectBySED computes the Spectral Edge Difference and the composite
// score of each candidate (setting SED and Score) and returns the one with
// the lowest score (§5.6): the true symbol's frequency is present
// uniformly across the symbol, so its edge spectra carry equal energy,
// while an interferer's C_prev/C_next is stronger at one edge.
//
//cic:hotpath
func (dm *Demodulator) selectBySED(cands []Candidate) Candidate {
	best := cands[0]
	bestScore := math.Inf(1)
	nBins := dm.cfg.Chirp.ChipCount()
	for i := range cands {
		lh, rh := dm.sedEdges(cands[i].Value(nBins))
		cands[i].SED = math.Abs(rh - lh)
		cands[i].Score = dm.candidateScore(cands[i], lh, rh)
		if cands[i].Score < bestScore {
			bestScore = cands[i].Score
			best = cands[i]
		}
	}
	return best
}

// sedEdges returns the loaded window's left and right edge powers at
// folded bin b: the minimum, over SEDWindows sliding half-symbol windows
// per edge, of each window's folded power at b. Only the candidates' bins
// are ever read, so one prefix-sum pass per candidate (dsp.BinProbe)
// replaces 2·SEDWindows full sub-window FFTs.
//
//cic:hotpath
func (dm *Demodulator) sedEdges(b int) (lh, rh float64) {
	m := dm.cfg.Chirp.SamplesPerSymbol()
	n := dm.opts.SEDWindows
	half := m / 2
	// Slide over a quarter symbol per edge: left windows start in
	// [0, M/4], right windows end in [3M/4 … M]. Narrower sliding keeps
	// the two sets disjoint enough to expose edge asymmetry.
	step := max((m/4)/n, 1)
	dm.probe.Load(dm.d.Dechirped(), b)
	lh, rh = math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		from := i * step
		lh = min(lh, dm.probe.Power(from, from+half))
		to := m - i*step
		rh = min(rh, dm.probe.Power(to-half, to))
	}
	return lh, rh
}

// candidateScore combines the SED with the soft CFO and power residuals.
// SED (relative to the candidate's edge energy lh+rh) is the primary
// discriminator per §5.6; the residuals break the near-ties that occur
// when an interferer repeats a symbol across its boundary and therefore
// also reads as edge-uniform.
//
//cic:hotpath
func (dm *Demodulator) candidateScore(c Candidate, lh, rh float64) float64 {
	tot := rh + lh
	sedRel := 1.0
	if tot > 0 {
		sedRel = math.Abs(rh-lh) / tot
	}
	score := sedRel
	if !dm.opts.DisableCFOFilter {
		score += 0.5 * math.Abs(c.FracBins) / cfoToleranceBins
	}
	if !dm.opts.DisablePowerFilter && c.FullAmp > 0 && dm.refAmp > 0 {
		dev := math.Abs(20 * math.Log10(c.FullAmp/dm.refAmp))
		score += 0.5 * dev / powerToleranceDB
	}
	return score
}
