// Package dsp provides the signal-processing kernel used throughout the
// repository: an allocation-free mixed radix-4/radix-2 complex FFT, folded
// LoRa spectra, peak detection with sub-bin interpolation, and small
// statistics helpers.
//
// The package is deliberately self-contained (stdlib only) because the rest
// of the system — chirp modulation, de-chirping, CIC spectral intersection —
// is built directly on these primitives.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// FFT is a reusable plan for forward and inverse complex FFTs of a fixed
// power-of-two size. The transform is decimation-in-time radix-4 with a
// single radix-2 first stage when log2(n) is odd; radix-4 butterflies do
// ~25% fewer complex multiplies than radix-2. A plan is safe for concurrent
// use by multiple goroutines: transforms are in place over caller storage
// and the plan itself is read-only after construction.
type FFT struct {
	n       int
	logN    int
	inv     []int32      // inverse digit reversal: x[q] is stage input inv[q]
	swaps   []int32      // transposition list realising the digit reversal in place (cycle decomposition)
	twiddle []complex128 // twiddle[k] = exp(-2πi k / n), k < n (full circle, serves w^k, w^2k, w^3k)
	stageTw []complex128 // per radix-4 stage with q >= 2, in schedule order: w1[0:q], w2[0:q], w3[0:q]
}

var (
	planMu    sync.RWMutex
	planCache = map[int]*FFT{}
)

// NewFFT returns an FFT plan for size n. n must be a power of two and >= 1.
func NewFFT(n int) (*FFT, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a positive power of two", n)
	}
	f := &FFT{n: n, logN: bits.TrailingZeros(uint(n))}
	perm := digitReversal(n)
	f.swaps = permSwaps(perm)
	f.inv = make([]int32, n)
	for p, q := range perm {
		f.inv[q] = int32(p)
	}
	f.twiddle = make([]complex128, n)
	for k := range f.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		f.twiddle[k] = complex(c, s)
	}
	f.stageTw = stageTwiddles(f.twiddle, f.logN)
	return f, nil
}

// stageTwiddles copies, for each radix-4 stage of quarter q >= 2 in
// schedule order, the twiddles w_j[k] = twiddle[j·k·n/(4q)] (j = 1, 2, 3,
// k < q) into three contiguous runs, so the vector stages load two
// consecutive butterflies' twiddles with one read. About n entries in all.
func stageTwiddles(twiddle []complex128, logN int) []complex128 {
	n := len(twiddle)
	q := 4
	if logN&1 == 1 {
		q = 2
	}
	tw := make([]complex128, 0, n)
	for ; 4*q <= n; q <<= 2 {
		step := n / (4 * q)
		for j := 1; j <= 3; j++ {
			for k := 0; k < q; k++ {
				tw = append(tw, twiddle[j*k*step])
			}
		}
	}
	return tw
}

// digitReversal builds the input permutation for the mixed-radix
// decimation-in-time schedule: radix-4 stages throughout, with a radix-2
// stage innermost (executed first) when log2(n) is odd. Position p of the
// permuted input holds x[perm[p]].
func digitReversal(n int) []int {
	if n == 1 {
		return []int{0}
	}
	r := 4
	if n == 2 {
		r = 2
	}
	m := n / r
	sub := digitReversal(m)
	out := make([]int, n)
	for k := 0; k < r; k++ {
		for j := 0; j < m; j++ {
			out[k*m+j] = r*sub[j] + k
		}
	}
	return out
}

// permSwaps flattens perm's cycle decomposition into an ordered list of
// transpositions (a, b) such that applying the swaps left to right yields
// y[p] = x[perm[p]]. Unlike plain bit reversal the mixed-radix permutation
// is not an involution, so it cannot be applied with the classic
// "swap if i < j" loop.
func permSwaps(perm []int) []int32 {
	n := len(perm)
	seen := make([]bool, n)
	var swaps []int32
	for start := 0; start < n; start++ {
		if seen[start] || perm[start] == start {
			seen[start] = true
			continue
		}
		prev := start
		for j := perm[start]; j != start; j = perm[j] {
			seen[j] = true
			swaps = append(swaps, int32(prev), int32(j))
			prev = j
		}
		seen[start] = true
	}
	return swaps
}

// Plan returns a cached FFT plan for size n, creating it on first use.
// n must be a positive power of two. Cache hits take only a read lock,
// so concurrent decode workers do not serialise on the lookup.
func Plan(n int) (*FFT, error) {
	planMu.RLock()
	p, ok := planCache[n]
	planMu.RUnlock()
	if ok {
		return p, nil
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p, ok := planCache[n]; ok {
		return p, nil
	}
	p, err := NewFFT(n)
	if err != nil {
		return nil, err
	}
	planCache[n] = p
	return p, nil
}

// MustPlan is Plan for sizes known good at construction time: it panics
// if n is not a positive power of two. The must* name marks the panic
// as sanctioned (the nopanic analyzer exempts must* constructors);
// decode-path code with wire-derived sizes uses Plan instead.
func MustPlan(n int) *FFT {
	p, err := Plan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Size returns the transform length of the plan.
func (f *FFT) Size() int { return f.n }

// resolve returns the plan matching len(x): the receiver when the
// length agrees, the cached plan of size len(x) otherwise, and nil when
// len(x) is not a positive power of two (no power-of-two transform exists).
// This makes every transform method total — a mismatched buffer is
// handled by the right plan or left untouched, never a panic, so a
// hostile window length cannot crash a decode worker.
func (f *FFT) resolve(x []complex128) *FFT {
	if f != nil && len(x) == f.n {
		return f
	}
	p, err := Plan(len(x)) //cic:alloc-ok: once-per-size plan construction, memoised in the package cache — steady state hits the cache and never reaches this call
	if err != nil {
		return nil
	}
	return p
}

// Forward computes the in-place forward DFT of x. A length mismatch is
// redirected to the cached plan of size len(x); inputs whose length is
// not a positive power of two are left unchanged (see resolve).
//
//cic:hotpath
func (f *FFT) Forward(x []complex128) {
	if g := f.resolve(x); g != nil {
		g.transform(x)
	}
}

// Inverse computes the in-place inverse DFT of x (including the 1/n
// scaling), with the same length-redirect semantics as Forward.
func (f *FFT) Inverse(x []complex128) {
	g := f.resolve(x)
	if g == nil {
		return
	}
	for i := range x {
		x[i] = complex(imag(x[i]), real(x[i])) // conjugate trick, part 1
	}
	g.transform(x)
	inv := 1 / float64(g.n)
	for i := range x {
		// part 2: swap back and scale
		x[i] = complex(imag(x[i])*inv, real(x[i])*inv)
	}
}

// transform assumes len(x) == f.n; exported wrappers resolve the plan
// first. Schedule: digit-reversal permutation, an optional radix-2 stage
// (odd log2 n), then radix-4 stages of size 4·(previous).
//
//cic:hotpath
func (f *FFT) transform(x []complex128) {
	for i := 0; i < len(f.swaps); i += 2 {
		a, b := f.swaps[i], f.swaps[i+1]
		x[a], x[b] = x[b], x[a]
	}
	f.stages(x)
}

// radix2 is the first pass when log2 n is odd, over adjacent pairs;
// W_2^0 = 1, so no twiddles.
//
//cic:hotpath
func radix2(x []complex128) {
	for i := 0; i+1 < len(x); i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

// stagesGo runs the butterfly schedule over x, which must already be in
// digit-reversed order. It is the portable form of stages and the oracle
// the vector stages are tested against, bit for bit.
//
//cic:hotpath
func (f *FFT) stagesGo(x []complex128) {
	n := f.n
	first4 := 4
	if f.logN&1 == 1 {
		radix2(x)
		first4 = 8
	}
	for size := first4; size <= n; size <<= 2 {
		q := size >> 2
		step := n / size
		for base := 0; base < n; base += size {
			// k = 0 butterfly: all twiddles are 1.
			{
				a, b := x[base], x[base+q]
				c, d := x[base+2*q], x[base+3*q]
				t0, t1 := a+c, a-c
				t2, e := b+d, b-d
				t3 := complex(imag(e), -real(e)) // -i·(b-d)
				x[base], x[base+q] = t0+t2, t1+t3
				x[base+2*q], x[base+3*q] = t0-t2, t1-t3
			}
			tw := step
			for i := base + 1; i < base+q; i++ {
				w1 := f.twiddle[tw]
				w2 := f.twiddle[2*tw]
				w3 := f.twiddle[3*tw]
				tw += step
				a := x[i]
				b := x[i+q] * w1
				c := x[i+2*q] * w2
				d := x[i+3*q] * w3
				t0, t1 := a+c, a-c
				t2, e := b+d, b-d
				t3 := complex(imag(e), -real(e)) // -i·(b-d)
				x[i], x[i+q] = t0+t2, t1+t3
				x[i+2*q], x[i+3*q] = t0-t2, t1-t3
			}
		}
	}
}

// ForwardInto computes the forward DFT of src, zero-padded or truncated
// to the transform size, into dst: it is ForwardWindowed over the whole
// of src, so dst is cleared and src scattered to its digit-reversed
// slots in one pass. src must not alias dst. dst follows Forward's
// length-redirect semantics (a dst of unusable length is left unchanged).
//
//cic:hotpath
func (f *FFT) ForwardInto(dst, src []complex128) {
	f.ForwardWindowed(dst, src, 0, len(src))
}

// ForwardWindowed computes the forward DFT of the signal that equals src
// on the sample range [from, to) and is zero elsewhere, writing the
// spectrum into dst (src is not modified). This is the zero-padded
// sub-window transform at the heart of ICSS spectral intersection: dst is
// cleared, and only the window's samples are scattered to their
// digit-reversed slots, so the work beyond the clear and the stages scales
// with the window, not with n. dst follows Forward's length-redirect
// semantics; out-of-range from/to are clamped, and an empty range yields
// the all-zero spectrum.
//
//cic:hotpath
func (f *FFT) ForwardWindowed(dst, src []complex128, from, to int) {
	g := f.resolve(dst)
	if g == nil {
		return
	}
	from = max(from, 0)
	to = min(to, len(src), g.n)
	clear(dst)
	if from < to {
		for i, p := range g.inv[from:to] {
			dst[p] = src[from+i]
		}
	}
	g.stages(dst)
}

// NextPow2 returns the smallest power of two >= n (and >= 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
