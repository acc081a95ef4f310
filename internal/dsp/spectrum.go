package dsp

import "math"

// Spectrum is a folded LoRa power spectrum: bins bins of non-negative power
// values, one per LoRa frequency bin (2^SF bins regardless of oversampling).
type Spectrum []float64

// FoldMagnitude folds an M-point FFT output X (M = bins*osr) into a
// bins-point LoRa power spectrum, writing into dst (allocated if nil).
//
// After de-chirping, a time-aligned LoRa symbol of value k produces two tone
// images: one at FFT bin k (the pre-wrap segment of the chirp, L₁ samples)
// and one at bin k+(osr-1)*bins (the post-wrap segment aliased by −B, L₂
// samples). Folding sums the *amplitudes* of the two images before
// squaring, so the folded bin carries (L₁+L₂)² — the same value a
// contiguous tone of the full duration would produce. (Summing powers
// instead would yield L₁²+L₂², penalising windows that straddle the wrap by
// up to 3 dB, which skews both spectral intersection and the spectral edge
// difference.) With osr == 1 both segments alias onto one bin coherently
// and the fold is the plain magnitude-squared spectrum.
//
// The fold is total (the nopanic invariant: FFT output lengths can derive
// from wire-supplied windows): a dst of the wrong length is reallocated, and
// an x shorter than bins*osr is treated as zero-extended — missing FFT bins
// contribute no power.
//
// With AVX2, the shapes the decoder uses (osr > 1, bins a multiple of 4,
// len(x) = bins·osr, dst of length bins) run the vector fold, bit for bit
// the same; every other shape runs the Go loop.
func FoldMagnitude(dst Spectrum, x []complex128, bins, osr int) Spectrum {
	if foldMagnitudeVec(dst, x, bins, osr) {
		return dst
	}
	return foldMagnitudeGo(dst, x, bins, osr)
}

// foldMagnitudeGo is FoldMagnitude's portable loop, the oracle the vector
// fold is tested against.
func foldMagnitudeGo(dst Spectrum, x []complex128, bins, osr int) Spectrum {
	if len(dst) != bins {
		dst = make(Spectrum, bins) //cic:alloc-ok: warm-up reallocation for a mismatched dst — steady-state callers pass the right-sized scratch and never allocate
	}
	if osr == 1 {
		for k := 0; k < bins && k < len(x); k++ {
			re, im := real(x[k]), imag(x[k])
			dst[k] = re*re + im*im
		}
		for k := len(x); k < bins; k++ {
			dst[k] = 0
		}
		return dst
	}
	hi := (osr - 1) * bins
	for k := 0; k < bins; k++ {
		var a float64
		if k < len(x) {
			re0, im0 := real(x[k]), imag(x[k])
			a = math.Sqrt(re0*re0 + im0*im0)
		}
		if hi+k < len(x) {
			re1, im1 := real(x[hi+k]), imag(x[hi+k])
			a += math.Sqrt(re1*re1 + im1*im1)
		}
		dst[k] = a * a
	}
	return dst
}

// FoldPower is FoldMagnitude on an M-grid power spectrum p (p[k] = |X[k]|²)
// instead of the complex FFT output: it adds the two images' amplitudes,
// √p[k] + √p[k+(osr-1)·bins], and squares the sum. Given powers computed as
// re·re + im·im it returns FoldMagnitude's result bit for bit, so a caller
// that keeps the power spectrum can fold it without the complex transform.
// Like FoldMagnitude it is total: a dst of the wrong length is reallocated
// and a short p is treated as zero-extended.
func FoldPower(dst, p Spectrum, bins, osr int) Spectrum {
	if len(dst) != bins {
		dst = make(Spectrum, bins) //cic:alloc-ok: warm-up reallocation for a mismatched dst — steady-state callers pass the right-sized scratch and never allocate
	}
	if osr == 1 {
		n := copy(dst, p)
		clear(dst[n:])
		return dst
	}
	hi := (osr - 1) * bins
	for k := 0; k < bins; k++ {
		var a float64
		if k < len(p) {
			a = math.Sqrt(p[k])
		}
		if hi+k < len(p) {
			a += math.Sqrt(p[hi+k])
		}
		dst[k] = a * a
	}
	return dst
}

// Energy returns the total power in the spectrum.
func (s Spectrum) Energy() float64 {
	var e float64
	for _, v := range s {
		e += v
	}
	return e
}

// Normalize scales the spectrum in place to unit total energy. A zero
// spectrum is left untouched. It returns the receiver for chaining.
func (s Spectrum) Normalize() Spectrum {
	e := s.Energy()
	if e <= 0 {
		return s
	}
	inv := 1 / e
	for i := range s {
		s[i] *= inv
	}
	return s
}

// Scale multiplies every bin by a.
func (s Spectrum) Scale(a float64) Spectrum {
	for i := range s {
		s[i] *= a
	}
	return s
}

// Max returns the maximum bin value and its index. For an empty spectrum it
// returns (0, -1).
func (s Spectrum) Max() (float64, int) {
	best, at := 0.0, -1
	for i, v := range s {
		if at == -1 || v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Intersect computes the spectral intersection of a and b — the element-wise
// minimum (paper §5.2) — writing the result into dst (allocated if nil).
// The operation is commutative and associative (property P1) and preserves
// the better frequency resolution available for each constituent frequency
// (property P2). Inputs are normally unit-energy normalised first.
// Mismatched lengths intersect over the common prefix (a missing bin is
// treated as zero power, and min(x, 0) = 0 for non-negative spectra), so the
// operation is total and cannot crash a decode worker.
func Intersect(dst, a, b Spectrum) Spectrum {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if dst == nil {
		dst = make(Spectrum, n)
	}
	for i := 0; i < n && i < len(dst); i++ {
		if a[i] <= b[i] {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return dst
}

// IntersectFold intersects into acc the unit-energy folded spectrum of
// x, acc ∩= FoldMagnitude(x).Normalize(), or of full − x when full is
// non-nil: for rectangular windows zero-padded onto one grid, a suffix
// window's spectrum is the full window's minus its prefix's. This is one
// ICSS sub-symbol of Eqn 12. sub is scratch for the fold and, after a
// call with full non-nil, so is x: neither holds anything defined
// afterwards.
//
// With AVX2 and FoldMagnitude's vector shape (acc and sub of length bins,
// full as long as x), the difference, fold, energy sum, scaling and
// minimum run in two vector passes, without writing the difference back
// into x. Every other shape runs the composition IntersectInto(acc,
// FoldMagnitude(sub, full − x).Normalize()), differenced over the common
// prefix of full and x; both give the same bits.
//
//cic:hotpath
func IntersectFold(acc, sub Spectrum, full, x []complex128, bins, osr int) {
	if intersectFoldVec(acc, sub, full, x, bins, osr) {
		return
	}
	if full != nil {
		for i := range min(len(full), len(x)) {
			x[i] = full[i] - x[i]
		}
	}
	IntersectInto(acc, FoldMagnitude(sub, x, bins, osr).Normalize())
}

// IntersectInto folds b into acc with the element-wise minimum (acc ∩= b).
// Like Intersect it is total: bins beyond the common prefix are zeroed in
// acc, matching min against a missing (zero-power) bin.
func IntersectInto(acc, b Spectrum) {
	n := len(acc)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if b[i] < acc[i] {
			acc[i] = b[i]
		}
	}
	for i := n; i < len(acc); i++ {
		acc[i] = 0
	}
}

// DFTBin evaluates the DTFT of x at the (possibly fractional) FFT bin
// position of an n-point transform: X(bin) = Σ x[t]·exp(-2πi·bin·t/n).
// This equals zero-padded-FFT interpolation without computing the full
// zoomed transform; the paper's 16× zoom FFT (§5.7) is realised by probing
// DFTBin on a 1/16-bin grid around a peak.
//
// The sum is evaluated with the Goertzel second-order recurrence run
// backward over x: with c = 2·cos θ (θ = -2π·bin/n) the state update
// v[t] = x[t] + c·v[t+1] - v[t+2] costs two real multiplies per complex
// sample — a quarter of the naive rotating-phasor product — and the probe
// value is recovered exactly as S = v[0] - e^{-iθ}·v[1]. The recurrence is
// branch-free and needs no renormalisation.
//
// The recurrence is a serial dependency chain (each v[t] needs v[t+1]),
// which makes the plain form latency-bound, and DFTBin dominates the
// decoder's DTFT-zoom stage. For the common stride-friendly lengths the
// sum is therefore evaluated by polyphase decomposition: splitting t into
// four phases t = 4u+r gives S = Σ_r e^{-iθr}·S_r with each
// S_r = Σ_u x[4u+r]·e^{-i(4θ)u} an independent Goertzel at angle 4θ over a
// quarter of the samples. The four recurrences interleave in one loop, so
// the out-of-order core overlaps their chains (~4× less latency-bound)
// while the per-sample operation count is unchanged. On amd64 CPUs with
// AVX2 the sums come from a vector kernel that sweeps the window for three
// angles per pass (sweepPolyphase), bit-identical to the scalar loop.
//
//cic:hotpath
func DFTBin(x []complex128, n int, bin float64) complex128 {
	theta := binAngle(bin, n)
	if !polyphaseLen(len(x)) {
		return dftBinGoertzel(x, theta)
	}
	s := polyphase(x, 4*theta)
	return s.combine(theta)
}

// binAngle is the DTFT angle θ = -2π·bin/n of a probe at bin.
func binAngle(bin float64, n int) float64 {
	return -2 * math.Pi * bin / float64(n)
}

// DFTBinPair returns DFTBin(x, n, bin) and DFTBin(x, n, bin+off) — the two
// OSR images of one tone — from a single polyphase sweep where possible.
// The four phase sums depend on θ only through 4θ, and when 4·off ≡ 0
// (mod n) the two probes' 4θ differ by a multiple of 2π: the sums are
// shared and only the final twiddle combination differs. That holds at
// OSR 4 (off = 3n/4) and OSR 2 (off = n/2); other offsets, and lengths
// the polyphase path cannot stride over, fall back to two DFTBin calls.
// The low value is bit-identical to DFTBin; the high one is evaluated
// with the low probe's 4θ, mathematically equal to DFTBin(bin+off) and
// equal to it up to the last bits.
//
//cic:hotpath
func DFTBinPair(x []complex128, n int, bin float64, off int) (lo, hi complex128) {
	if !pairShares(len(x), n, off) {
		return DFTBin(x, n, bin), DFTBin(x, n, bin+float64(off))
	}
	thLo, thHi := binAngle(bin, n), binAngle(bin+float64(off), n)
	s := polyphase(x, 4*thLo)
	return s.combine(thLo), s.combine(thHi)
}

// polyphaseLen reports whether the polyphase path can stride over a
// window of m samples: m a multiple of 4, at least 8.
func polyphaseLen(m int) bool {
	return m >= 8 && m%4 == 0
}

// pairShares reports whether the two images of a probe pair share one
// polyphase sweep: the window admits the polyphase path and
// 4·off ≡ 0 (mod n).
func pairShares(m, n, off int) bool {
	return polyphaseLen(m) && n > 0 && (4*off)%n == 0
}

// polyphase returns polyphaseSums(x, theta4) as a one-angle sweepPolyphase.
func polyphase(x []complex128, theta4 float64) phaseSums {
	th4 := [1]float64{theta4}
	var s [1]phaseSums
	sweepPolyphase(x, th4[:], s[:])
	return s[0]
}

// phaseSums holds the four polyphase Goertzel sums S_r of DFTBin.
type phaseSums [4]complex128

// goertzelState is the final state of polyphaseSums' four recurrences:
// v1[r] = v[0] and v2[r] = v[1] of phase r. The batched kernel stores its
// registers in this layout.
type goertzelState struct {
	v1, v2 [4]complex128
}

// polyphaseSums runs the four interleaved Goertzel recurrences at angle
// theta4 = 4θ over x (len(x) a multiple of 4, at least 8). It is the
// portable kernel and the reference the batched one must match bit for bit.
//
//cic:hotpath
func polyphaseSums(x []complex128, theta4 float64) phaseSums {
	sin4, cos4 := math.Sincos(theta4)
	k := 2 * cos4
	var a1r, a1i, a2r, a2i float64 // phase 0 state: v[u+1], v[u+2]
	var b1r, b1i, b2r, b2i float64 // phase 1
	var c1r, c1i, c2r, c2i float64 // phase 2
	var d1r, d1i, d2r, d2i float64 // phase 3
	for base := len(x) - 4; base >= 0; base -= 4 {
		v0, v1, v2, v3 := x[base], x[base+1], x[base+2], x[base+3]
		ar := real(v0) + k*a1r - a2r
		ai := imag(v0) + k*a1i - a2i
		br := real(v1) + k*b1r - b2r
		bi := imag(v1) + k*b1i - b2i
		cr := real(v2) + k*c1r - c2r
		ci := imag(v2) + k*c1i - c2i
		dr := real(v3) + k*d1r - d2r
		di := imag(v3) + k*d1i - d2i
		a2r, a2i, a1r, a1i = a1r, a1i, ar, ai
		b2r, b2i, b1r, b1i = b1r, b1i, br, bi
		c2r, c2i, c1r, c1i = c1r, c1i, cr, ci
		d2r, d2i, d1r, d1i = d1r, d1i, dr, di
	}
	st := goertzelState{
		v1: [4]complex128{complex(a1r, a1i), complex(b1r, b1i), complex(c1r, c1i), complex(d1r, d1i)},
		v2: [4]complex128{complex(a2r, a2i), complex(b2r, b2i), complex(c2r, c2i), complex(d2r, d2i)},
	}
	return st.finish(sin4, cos4)
}

// sweepPolyphaseGo is sweepPolyphase on the portable kernel.
//
//cic:hotpath
func sweepPolyphaseGo(x []complex128, theta4 []float64, sums []phaseSums) {
	for i, th := range theta4 {
		sums[i] = polyphaseSums(x, th)
	}
}

// finish returns the phase sums of a final state at angle 4θ with
// sin 4θ = sin4, cos 4θ = cos4: per phase, S_r = v[0] - conj(e^{i4θ})·v[1].
func (st *goertzelState) finish(sin4, cos4 float64) phaseSums {
	e4 := complex(cos4, -sin4)
	var s phaseSums
	for r := range s {
		s[r] = st.v1[r] - e4*st.v2[r]
	}
	return s
}

// combine returns S = Σ_r e^{iθr}·S_r (θ already carries the minus sign
// of the DTFT exponent).
func (s *phaseSums) combine(theta float64) complex128 {
	sn, cs := math.Sincos(theta)
	w := complex(cs, sn) // e^{-iθ}
	w2 := w * w
	return s[0] + w*s[1] + w2*s[2] + w2*w*s[3]
}

// dftBinGoertzel is the plain single-chain Goertzel evaluation of
// Σ x[t]·e^{iθt}, used for lengths the interleaved polyphase path cannot
// stride over.
func dftBinGoertzel(x []complex128, theta float64) complex128 {
	sin, cos := math.Sincos(theta)
	c := 2 * cos
	var s1r, s1i, s2r, s2i float64 // v[t+1], v[t+2]
	for t := len(x) - 1; t >= 0; t-- {
		v := x[t]
		vr := real(v) + c*s1r - s2r
		vi := imag(v) + c*s1i - s2i
		s2r, s2i = s1r, s1i
		s1r, s1i = vr, vi
	}
	// S = v[0] - conj(z)·v[1] with z = e^{-iθ} = (cos, sin).
	return complex(s1r-(cos*s2r+sin*s2i), s1i-(cos*s2i-sin*s2r))
}

// RefinePeak locates the fractional peak position near an integer FFT bin by
// probing the DTFT on a fine grid of zoom sub-bins on each side (a local
// zoom FFT). It returns the refined fractional bin and the power there.
// x is the time-domain (already de-chirped) signal, n the FFT length the
// integer bin refers to.
func RefinePeak(x []complex128, n, bin, zoom int) (float64, float64) {
	return RefinePeakRange(x, n, bin, zoom, 1)
}

// RefinePeakRange is RefinePeak with an explicit search radius in bins
// (spread may be fractional): positions bin ± spread are probed at 1/zoom
// bin steps.
func RefinePeakRange(x []complex128, n, bin, zoom int, spread float64) (float64, float64) {
	if zoom < 1 {
		zoom = 1
	}
	steps := int(spread * float64(zoom))
	return SearchFineGrid(x, n, float64(bin), steps, 1/float64(zoom))
}

// SearchFineGrid finds the maximum-power DTFT probe over the fine grid
// base + s·step for s in [-steps, steps], returning the grid position and
// the power there. The de-chirped tone's main lobe spans several grid
// points at the zooms used by the decoder, so the search is two-stage:
// a coarse pass visits every fourth grid point (plus both endpoints) to
// bracket the lobe, then a fine pass sweeps the remaining grid points
// within one coarse stride of the bracket winner. The probed set is a
// subset of the full grid, so the result is always one of the exhaustive
// sweep's candidates at ~40% of its DFTBin probes.
//
//cic:hotpath
func SearchFineGrid(x []complex128, n int, base float64, steps int, step float64) (float64, float64) {
	pos, pow, _, _ := searchGrid(x, n, base, 0, steps, step, false)
	return pos, pow
}

// SearchFineGridPair runs SearchFineGrid around base and around base+off —
// the two OSR images of one tone — in one pass. Each image gets exactly
// the probe set its own SearchFineGrid call would give it; the grid
// points both images visit (the whole coarse pass, and wherever the two
// fine windows overlap) are evaluated by one DFTBinPair sweep. The low
// image's result is bit-identical to SearchFineGrid(x, n, base, …).
//
//cic:hotpath
func SearchFineGridPair(x []complex128, n int, base float64, off, steps int, step float64) (loPos, loPow, hiPos, hiPow float64) {
	return searchGrid(x, n, base, off, steps, step, true)
}

// gridBest tracks one image's best probe: the first grid index reaching
// the maximum power, in probe order.
type gridBest struct {
	s   int
	pow float64
}

func (b *gridBest) offer(s int, v complex128) {
	if p := real(v)*real(v) + imag(v)*imag(v); p > b.pow {
		b.pow, b.s = p, s
	}
}

// searchGrid is the two-stage search of SearchFineGrid over the low image
// at base and, when pair is set, over the high image at base+off.
//
//cic:hotpath
func searchGrid(x []complex128, n int, base float64, off, steps int, step float64, pair bool) (loPos, loPow, hiPos, hiPow float64) {
	b := gridBatch{
		x: x, n: n, base: base, hiBase: base + float64(off), step: step,
		poly:   polyphaseLen(len(x)),
		shared: pairShares(len(x), n, off),
	}
	b.lo = gridBest{s: -steps, pow: -1}
	b.hi = b.lo
	const stride = 4
	if steps <= 2*stride {
		for s := -steps; s <= steps; s++ {
			b.probe(s, true, pair)
		}
	} else {
		for s := -steps; s <= steps; s += stride {
			b.probe(s, true, pair)
		}
		b.flush()
		// Keep the +steps endpoint in the coarse pass.
		b.probe(steps, b.lo.s+stride > steps, pair && b.hi.s+stride > steps)
		b.flush()
		// Fine pass: each image sweeps one coarse stride either side of its
		// bracket winner (windows fixed before the pass starts).
		loFrom, loTo := max(b.lo.s-stride+1, -steps), min(b.lo.s+stride-1, steps)
		hiFrom, hiTo := max(b.hi.s-stride+1, -steps), min(b.hi.s+stride-1, steps)
		from, to := loFrom, loTo
		if pair {
			from, to = min(from, hiFrom), max(to, hiTo)
		}
		for s := from; s <= to; s++ {
			if (s+steps)%stride == 0 { // already probed in the coarse pass
				continue
			}
			b.probe(s, s >= loFrom && s <= loTo, pair && s >= hiFrom && s <= hiTo)
		}
	}
	b.flush()
	return base + float64(b.lo.s)*step, b.lo.pow, b.hiBase + float64(b.hi.s)*step, b.hi.pow
}

// gridBatchSweeps bounds the polyphase sweeps a gridBatch queues before it
// evaluates them: a multiple of the batched kernel's three angles, and
// room for a whole coarse pass of the decoder's grids (±19 steps make 10
// pair probes, 20 sweeps where the images cannot share one).
const gridBatchSweeps = 24

// gridBatch evaluates searchGrid's probes a pass at a time. A probe queues
// the sweeps its DFTBin or DFTBinPair evaluation runs and one output per
// wanted image; flush runs the queued sweeps through sweepPolyphase
// together and offers the outputs in queue order, which is the per-probe
// order, so each image's first-max rule picks the same grid point. The
// probes of one pass do not depend on each other's values, so a pass may
// be flushed at any point; searchGrid flushes between passes.
type gridBatch struct {
	x              []complex128
	n              int
	base, hiBase   float64
	step           float64
	poly           bool // len(x) admits the polyphase path
	shared         bool // a pair probe's images share one sweep
	lo, hi         gridBest
	theta4         [gridBatchSweeps]float64
	sums           [gridBatchSweeps]phaseSums
	outs           [2 * gridBatchSweeps]gridOut
	nSweeps, nOuts int
}

// gridOut is one queued probe value: grid index s of the low or the high
// image, combined at angle theta from sums[sweep], or by the single-chain
// Goertzel when sweep < 0.
type gridOut struct {
	s     int
	hi    bool
	sweep int
	theta float64
}

// probe queues grid index s for the wanted images.
//
//cic:hotpath
func (b *gridBatch) probe(s int, wantLo, wantHi bool) {
	if b.nSweeps+2 > len(b.theta4) || b.nOuts+2 > len(b.outs) {
		b.flush()
	}
	thLo := binAngle(b.base+float64(s)*b.step, b.n)
	thHi := binAngle(b.hiBase+float64(s)*b.step, b.n)
	if wantLo && wantHi && b.shared {
		i := b.sweep(thLo)
		b.queue(s, false, i, thLo)
		b.queue(s, true, i, thHi)
		return
	}
	if wantLo {
		b.queue(s, false, b.sweep(thLo), thLo)
	}
	if wantHi {
		b.queue(s, true, b.sweep(thHi), thHi)
	}
}

// sweep queues the polyphase sweep at 4θ and returns its index, or -1
// when the window takes the single-chain path.
func (b *gridBatch) sweep(theta float64) int {
	if !b.poly {
		return -1
	}
	b.theta4[b.nSweeps] = 4 * theta
	b.nSweeps++
	return b.nSweeps - 1
}

func (b *gridBatch) queue(s int, hi bool, sweep int, theta float64) {
	b.outs[b.nOuts] = gridOut{s: s, hi: hi, sweep: sweep, theta: theta}
	b.nOuts++
}

// flush evaluates every queued sweep and offers the queued outputs.
//
//cic:hotpath
func (b *gridBatch) flush() {
	sweepPolyphase(b.x, b.theta4[:b.nSweeps], b.sums[:b.nSweeps])
	for _, o := range b.outs[:b.nOuts] {
		var v complex128
		if o.sweep < 0 {
			v = dftBinGoertzel(b.x, o.theta)
		} else {
			v = b.sums[o.sweep].combine(o.theta)
		}
		if o.hi {
			b.hi.offer(o.s, v)
		} else {
			b.lo.offer(o.s, v)
		}
	}
	b.nSweeps, b.nOuts = 0, 0
}

// QuadInterp performs three-point quadratic (parabolic) interpolation of a
// peak at index i of spectrum s, returning the fractional offset in
// [-0.5, 0.5] and the interpolated peak height. Neighbours wrap modulo the
// spectrum length, matching the circular LoRa bin space.
func QuadInterp(s Spectrum, i int) (offset, height float64) {
	n := len(s)
	if n < 3 {
		return 0, s[i]
	}
	l := s[(i-1+n)%n]
	c := s[i]
	r := s[(i+1)%n]
	den := l - 2*c + r
	if den == 0 {
		return 0, c
	}
	d := 0.5 * (l - r) / den
	if d > 0.5 {
		d = 0.5
	} else if d < -0.5 {
		d = -0.5
	}
	return d, c - 0.25*(l-r)*d
}

// BinProbe evaluates the folded power spectrum of rectangular sub-windows
// of one signal at a single folded LoRa bin, for any number of windows,
// from one pass over the signal. It replaces one windowed FFT per window
// wherever only a few bins of each sub-window spectrum are read (the
// Spectral Edge Difference reads only the candidate bins).
//
// Load(x, k) builds the prefix sums P(q) = Σ_{t<q} x[t]·W^{k·t}, with
// W = e^{−2πi/n}, at both OSR images of folded bin k: k and
// k + (OSR−1)·bins. The zero-padded DFT of the window [from, to) at an
// image is then P(to) − P(from), so Power returns
// (|P_lo(to)−P_lo(from)| + |P_hi(to)−P_hi(from)|)², what FoldMagnitude
// makes of ForwardWindowed's output at bin k, up to rounding. The phasor is
// read from the plan's twiddle table at index (k·t) mod n rather than
// advanced by repeated multiplication, so it does not drift.
type BinProbe struct {
	f         *FFT
	bins, osr int
	lo, hi    []complex128 // prefix sums at the two images, n+1 long
}

// NewBinProbe returns a probe for signals of bins·osr samples (a power of
// two, as for the FFT plan of that size).
func NewBinProbe(bins, osr int) (*BinProbe, error) {
	f, err := Plan(bins * osr)
	if err != nil {
		return nil, err
	}
	return &BinProbe{
		f:    f,
		bins: bins,
		osr:  osr,
		lo:   make([]complex128, f.n+1),
		hi:   make([]complex128, f.n+1),
	}, nil
}

// Load sweeps x once for folded bin k. Samples past n are ignored and a
// short x is treated as zero-extended, as ForwardWindowed treats them.
//
//cic:hotpath
func (p *BinProbe) Load(x []complex128, k int) {
	n := p.f.n
	mask := n - 1
	tw := p.f.twiddle[:n]
	kLo := k & mask
	kHi := (k + (p.osr-1)*p.bins) & mask
	m := min(len(x), n)
	x = x[:m]
	lo, hi := p.lo[:n+1], p.hi[:n+1]
	var sLo, sHi complex128
	lo[0], hi[0] = 0, 0
	iLo, iHi := 0, 0
	for q, v := range x {
		sLo += v * tw[iLo]
		sHi += v * tw[iHi]
		lo[q+1], hi[q+1] = sLo, sHi
		iLo = (iLo + kLo) & mask
		iHi = (iHi + kHi) & mask
	}
	for q := m; q < n; q++ {
		lo[q+1], hi[q+1] = sLo, sHi
	}
}

// Power returns the folded power of the loaded signal's window
// [from, to) at the loaded bin. Like ForwardWindowed it clamps the window
// to [0, n), and an empty window has zero power.
//
//cic:hotpath
func (p *BinProbe) Power(from, to int) float64 {
	from, to = max(from, 0), min(to, p.f.n)
	if from >= to {
		return 0
	}
	d := p.lo[to] - p.lo[from]
	re, im := real(d), imag(d)
	if p.osr == 1 {
		return re*re + im*im
	}
	a := math.Sqrt(re*re + im*im)
	d = p.hi[to] - p.hi[from]
	re, im = real(d), imag(d)
	a += math.Sqrt(re*re + im*im)
	return a * a
}
