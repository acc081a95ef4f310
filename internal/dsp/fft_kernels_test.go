package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// radix2Reference is the classic recursive radix-2 decimation-in-time FFT
// the package used before the radix-4 rewrite — kept here as an independent
// cross-check of the butterfly schedule (the naive DFT checks correctness,
// this checks the numerically-close path a radix bug would diverge from).
func radix2Reference(x []complex128) []complex128 {
	n := len(x)
	if n == 1 {
		return []complex128{x[0]}
	}
	even := make([]complex128, n/2)
	odd := make([]complex128, n/2)
	for i := 0; i < n/2; i++ {
		even[i] = x[2*i]
		odd[i] = x[2*i+1]
	}
	fe := radix2Reference(even)
	fo := radix2Reference(odd)
	out := make([]complex128, n)
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		tw := cmplx.Exp(complex(0, ang)) * fo[k]
		out[k] = fe[k] + tw
		out[k+n/2] = fe[k] - tw
	}
	return out
}

// TestFFTMatchesRadix2Reference cross-checks the mixed radix-4/radix-2
// schedule against an independent radix-2 implementation over randomized
// inputs at every size the decode path uses (both odd and even log2 n, so
// both the pure-radix-4 and the radix-2-first-stage schedules are hit).
func TestFFTMatchesRadix2Reference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		for trial := 0; trial < 4; trial++ {
			x := randSignal(r, n)
			want := radix2Reference(x)
			got := append([]complex128(nil), x...)
			MustPlan(n).Forward(got)
			if e := maxErr(got, want); e > 1e-9*float64(n) {
				t.Errorf("n=%d trial=%d: max error %g vs radix-2 reference", n, trial, e)
			}
		}
	}
}

// TestForwardWindowedMatchesZeroPadded verifies the fused windowed
// transform against the straightforward copy-then-transform it replaced, over randomized windows including degenerate and
// out-of-range [from, to).
func TestForwardWindowedMatchesZeroPadded(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range []int{4, 16, 64, 256, 1024} {
		f := MustPlan(n)
		for trial := 0; trial < 8; trial++ {
			x := randSignal(r, n)
			from := r.Intn(n+8) - 4 // may be negative or past the end
			to := r.Intn(n+8) - 4
			// Reference: explicit zero-padded copy, then Forward.
			want := make([]complex128, n)
			cf, ct := from, to
			if cf < 0 {
				cf = 0
			}
			if ct > n {
				ct = n
			}
			for i := cf; i < ct; i++ {
				want[i] = x[i]
			}
			f.Forward(want)

			got := make([]complex128, n)
			for i := range got {
				got[i] = complex(42, -42) // stale garbage must be overwritten
			}
			f.ForwardWindowed(got, x, from, to)
			if e := maxErr(got, want); e > 1e-9*float64(n) {
				t.Errorf("n=%d window=[%d,%d): max error %g", n, from, to, e)
			}
		}
	}
}

// fftEdgeSignal draws n samples for the bit-identity tests of the vector
// stages from one of four families: ordinary values; signed zeros with a
// few subnormals, whose zero signs a multiply by 1+0i would change; values
// with scattered ±Inf, which a multiply by 1+0i would turn into NaN; and
// magnitudes near the float64 limit, whose sums overflow to Inf and then
// cancel to NaN.
func fftEdgeSignal(r *rand.Rand, n, family int) []complex128 {
	v := func() float64 {
		switch family {
		case 1:
			if r.Intn(8) == 0 {
				return r.NormFloat64() * 1e-310
			}
			return math.Copysign(0, r.NormFloat64())
		case 2:
			switch r.Intn(16) {
			case 0:
				return math.Inf(1 - 2*r.Intn(2))
			case 1, 2:
				return math.Copysign(0, r.NormFloat64())
			}
		case 3:
			return r.NormFloat64() * 1e307
		}
		return r.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(v(), v())
	}
	return x
}

// TestStagesMatchScalar checks the butterfly stages FFT.stages runs (the
// vector kernels when the CPU has AVX2) against the portable stagesGo bit
// for bit, or both NaN, at every n = 2…8192: even log2 n (the q = 1 first
// stage) and odd (the radix-2 pass, then the q = 2 stage), on ordinary,
// signed-zero, subnormal, infinite and overflowing inputs.
func TestStagesMatchScalar(t *testing.T) {
	t.Logf("vector FFT stages in use: %v", useAVX2)
	r := rand.New(rand.NewSource(31))
	for n := 2; n <= 8192; n *= 2 {
		f := MustPlan(n)
		for family := 0; family < 4; family++ {
			for trial := 0; trial < 6; trial++ {
				x := fftEdgeSignal(r, n, family)
				got := append([]complex128(nil), x...)
				want := append([]complex128(nil), x...)
				f.stages(got)
				f.stagesGo(want)
				for i := range got {
					if !sameComplexBits(got[i], want[i]) {
						t.Fatalf("n=%d family=%d trial=%d bin %d: stages %v, stagesGo %v", n, family, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// forwardWindowedGather is ForwardWindowed as the gather over the digit
// reversal that the scatter replaced: every stage input slot reads its
// source sample when it lies in the clamped [from, to), zero otherwise.
func forwardWindowedGather(f *FFT, dst, src []complex128, from, to int) {
	if from < 0 {
		from = 0
	}
	if to > len(src) {
		to = len(src)
	}
	for p, q := range digitReversal(f.n) {
		if q >= from && q < to {
			dst[p] = src[q]
		} else {
			dst[p] = 0
		}
	}
	f.stages(dst)
}

// TestForwardWindowedMatchesGather checks the scatter form of
// ForwardWindowed against the gather bit for bit on the edge windows —
// empty, whole, starting before 0, ending past src or past n, reversed —
// with sources shorter and longer than n, random windows, and a dst full
// of stale values.
func TestForwardWindowedMatchesGather(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		f := MustPlan(n)
		windows := [][2]int{{0, 0}, {0, n}, {-3, n / 2}, {n / 4, n + 5}, {n / 2, n / 4}, {n, n}, {n + 1, n + 9}, {-9, -1}}
		for trial := 0; trial < 8; trial++ {
			windows = append(windows, [2]int{r.Intn(n+8) - 4, r.Intn(n+8) - 4})
		}
		for _, m := range []int{n, n / 2, n - 1, n + 7, 0} {
			src := randSignal(r, m)
			for _, w := range windows {
				got := make([]complex128, n)
				want := make([]complex128, n)
				for i := range got {
					got[i] = complex(42, -42)
				}
				f.ForwardWindowed(got, src, w[0], w[1])
				forwardWindowedGather(f, want, src, w[0], w[1])
				for i := range got {
					if !sameComplexBits(got[i], want[i]) {
						t.Fatalf("n=%d len(src)=%d window %v bin %d: scatter %v, gather %v", n, m, w, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestForwardIntoMatchesCopyTransform checks the scatter form of
// ForwardInto against the copy, zero-fill and in-place transform it
// replaced, bit for bit: src shorter than, as long as and longer than n,
// an empty src, and a dst full of stale values.
func TestForwardIntoMatchesCopyTransform(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		f := MustPlan(n)
		for _, m := range []int{0, 1, n / 2, n - 1, n, n + 7} {
			for family := 0; family < 4; family++ {
				src := fftEdgeSignal(r, m, family)
				got := make([]complex128, n)
				for i := range got {
					got[i] = complex(42, -42)
				}
				want := append([]complex128(nil), got...)
				f.ForwardInto(got, src)
				k := copy(want, src)
				clear(want[k:])
				f.transform(want)
				for i := range got {
					if !sameComplexBits(got[i], want[i]) {
						t.Fatalf("n=%d len(src)=%d family=%d bin %d: scatter %v, copy+transform %v", n, m, family, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// naiveDTFT evaluates the DTFT of x at a (possibly fractional) bin by
// direct summation.
func naiveDTFT(x []complex128, n int, bin float64) complex128 {
	var sum complex128
	for t := 0; t < len(x) && t < n; t++ {
		ang := -2 * math.Pi * bin * float64(t) / float64(n)
		sum += x[t] * cmplx.Exp(complex(0, ang))
	}
	return sum
}

// TestDFTBinFractionalMatchesNaiveDTFT verifies the Goertzel evaluation at
// randomized fractional bins (the DTFT-zoom path of peak refinement)
// against direct summation.
func TestDFTBinFractionalMatchesNaiveDTFT(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for _, n := range []int{16, 64, 256, 1024} {
		x := randSignal(r, n)
		for trial := 0; trial < 16; trial++ {
			bin := float64(n) * (2*r.Float64() - 0.5) // includes <0 and >n
			want := naiveDTFT(x, n, bin)
			got := DFTBin(x, n, bin)
			scale := cmplx.Abs(want) + 1
			if d := cmplx.Abs(got - want); d > 1e-8*float64(n)*scale {
				t.Errorf("n=%d bin=%.4f: |err| = %g", n, bin, d)
			}
		}
	}
}

// TestDFTBinPairMatchesDFTBin: where the two images share their phase
// sums (OSR 4 and OSR 2 offsets), the low value is bit-identical to
// DFTBin and the high one agrees with DFTBin(bin+off) to 1e-12 relative
// to the signal's magnitude sum;
// elsewhere (OSR 8, lengths the polyphase path cannot stride over) the
// fallback returns exactly the two DFTBin values.
func TestDFTBinPairMatchesDFTBin(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const n = 1024
	for _, c := range []struct {
		name   string
		n, off int
		length int
		shared bool
	}{
		{"osr4", n, 3 * n / 4, n, true},
		{"osr4-subwindow", n, 3 * n / 4, 600, true},
		{"osr2", n, n / 2, n, true},
		{"osr4-odd-length", n, 3 * n / 4, 601, false},
		{"osr8", 2 * n, 7 * n / 4, 2 * n, false},
	} {
		x := randSignal(r, c.length)
		// Relative to the largest value a probe can take (Σ|x[t]|, which
		// a tone on the probed bin reaches): the rounding of 4θ perturbs
		// every term of the sum, so its error scales with Σ|x|, not with
		// the probe's own magnitude, which is near 0 between lobes.
		scale := 0.0
		for _, v := range x {
			scale += cmplx.Abs(v)
		}
		for trial := 0; trial < 64; trial++ {
			bin := float64(c.n) * (2*r.Float64() - 0.5)
			lo, hi := DFTBinPair(x, c.n, bin, c.off)
			wantLo, wantHi := DFTBin(x, c.n, bin), DFTBin(x, c.n, bin+float64(c.off))
			if lo != wantLo {
				t.Fatalf("%s bin=%g: low %v, DFTBin %v", c.name, bin, lo, wantLo)
			}
			if !c.shared {
				if hi != wantHi {
					t.Fatalf("%s bin=%g: fallback high %v, DFTBin %v", c.name, bin, hi, wantHi)
				}
				continue
			}
			if d := cmplx.Abs(hi - wantHi); d > 1e-12*scale {
				t.Errorf("%s bin=%g: high %v, DFTBin %v (err %g of scale)", c.name, bin, hi, wantHi, d/scale)
			}
		}
	}
}

// twoImageTone is a de-chirped symbol of fractional value f at OSR 4: the
// pre-wrap segment is a tone at FFT bin f, the post-wrap segment its image
// at f+off, with a little noise so lobes are not exactly symmetric.
func twoImageTone(r *rand.Rand, n, off int, f float64, wrap int) []complex128 {
	x := make([]complex128, n)
	for t := range x {
		bin := f
		if t >= wrap {
			bin += float64(off)
		}
		x[t] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(t)/float64(n))) +
			complex(0.05*r.NormFloat64(), 0.05*r.NormFloat64())
	}
	return x
}

// TestSearchFineGridPairMatchesTwoSearches sweeps a tone across a grid of
// fractional positions and wrap points and checks that the pair search
// lands on the same grid positions as two SearchFineGrid calls, at the
// decoder's candidate (±1.2 bins at 1/16) and edge-vote (±1.5 bins at
// 1/8) settings, a short grid that takes the single-stage path, on full
// windows and on sub-windows.
func TestSearchFineGridPairMatchesTwoSearches(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	const n, off = 1024, 768
	grids := []struct {
		steps int
		step  float64
	}{{19, 1.0 / 16}, {12, 1.0 / 8}, {6, 1.0 / 4}}
	for f := 40.0; f < 44; f += 0.07 {
		wrap := r.Intn(n)
		x := twoImageTone(r, n, off, f, wrap)
		for _, win := range [][2]int{{0, n}, {0, 700}, {324, n}} {
			sub := x[win[0]:win[1]]
			for _, g := range grids {
				base := math.Round(f) + 0.5*r.Float64() - 0.25
				loPos, loPow, hiPos, hiPow := SearchFineGridPair(sub, n, base, off, g.steps, g.step)
				wantLoPos, wantLoPow := SearchFineGrid(sub, n, base, g.steps, g.step)
				wantHiPos, wantHiPow := SearchFineGrid(sub, n, base+off, g.steps, g.step)
				if loPos != wantLoPos || loPow != wantLoPow {
					t.Fatalf("f=%g win=%v steps=%d: low (%g, %g), SearchFineGrid (%g, %g)", f, win, g.steps, loPos, loPow, wantLoPos, wantLoPow)
				}
				if hiPos != wantHiPos || math.Abs(hiPow-wantHiPow) > 1e-12*wantHiPow {
					t.Fatalf("f=%g win=%v steps=%d: high (%g, %g), SearchFineGrid (%g, %g)", f, win, g.steps, hiPos, hiPow, wantHiPos, wantHiPow)
				}
			}
		}
	}
}

// TestBinProbeMatchesForwardWindowed checks the candidate-bin kernel
// against the folded windowed FFT it replaces, at every bin, for OSR 1–8
// and randomized windows including degenerate and out-of-range
// [from, to) (which both sides clamp to [0, n)).
func TestBinProbeMatchesForwardWindowed(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	const bins = 64
	for _, osr := range []int{1, 2, 4, 8} {
		n := bins * osr
		f := MustPlan(n)
		p, err := NewBinProbe(bins, osr)
		if err != nil {
			t.Fatal(err)
		}
		x := randSignal(r, n)
		spec := make([]complex128, n)
		windows := [][2]int{{0, n}, {-n, n / 2}, {n / 2, 2 * n}, {n + 3, n + 9}, {7, 7}, {9, 4}}
		for len(windows) < 24 {
			windows = append(windows, [2]int{r.Intn(n+8) - 4, r.Intn(n+8) - 4})
		}
		for k := 0; k < bins; k++ {
			p.Load(x, k)
			for _, w := range windows {
				f.ForwardWindowed(spec, x, w[0], w[1])
				want := FoldMagnitude(nil, spec, bins, osr)[k]
				tol := 1e-9 * FoldMagnitude(nil, spec, bins, osr).Energy()
				if got := p.Power(w[0], w[1]); math.Abs(got-want) > tol {
					t.Fatalf("osr=%d bin=%d window %v: probe %g, windowed FFT %g", osr, k, w, got, want)
				}
			}
		}
	}
}

// TestKernelsAllocFree pins the warm-path allocation budget of every FFT
// and fold kernel entry point at zero: after the plans are cached, no
// kernel call may allocate.
func TestKernelsAllocFree(t *testing.T) {
	n := 1024
	f := MustPlan(n)
	probe, err := NewBinProbe(n/4, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, n)
	dst := make([]complex128, n)
	acc, sub := make(Spectrum, n/4), make(Spectrum, n/4)
	r := rand.New(rand.NewSource(16))
	for i := range buf {
		buf[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	checks := []struct {
		name string
		fn   func()
	}{
		{"Forward", func() { f.Forward(buf) }},
		{"ForwardInto", func() { f.ForwardInto(dst, buf) }},
		{"ForwardWindowed", func() { f.ForwardWindowed(dst, buf, 100, 900) }},
		{"Inverse", func() { f.Inverse(buf) }},
		{"DFTBin", func() { _ = DFTBin(buf, n, 41.25) }},
		{"DFTBinPair", func() { _, _ = DFTBinPair(buf, n, 41.25, 3*n/4) }},
		{"SearchFineGridPair", func() { _, _, _, _ = SearchFineGridPair(buf, n, 41, 3*n/4, 19, 1.0/16) }},
		{"BinProbe", func() { probe.Load(buf, 41); _ = probe.Power(100, 612) }},
		{"IntersectFold", func() { IntersectFold(acc, sub, nil, dst, n/4, 4); IntersectFold(acc, sub, buf, dst, n/4, 4) }},
	}
	for _, c := range checks {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// --- Kernel benchmarks (recorded by `make bench-matrix` into BENCH_dsp.json) --

func benchSignal(n int) []complex128 {
	r := rand.New(rand.NewSource(21))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func BenchmarkFFT4096(b *testing.B) {
	f := MustPlan(4096)
	buf := benchSignal(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(buf)
	}
}

func BenchmarkForwardWindowed1024(b *testing.B) {
	f := MustPlan(1024)
	src := benchSignal(1024)
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ForwardWindowed(dst, src, 128, 640)
	}
}

// BenchmarkForwardWindowedPrefix1024 is ICSS's per-boundary transform
// (intersectSplit): prefix windows [0, b) of one 1024-sample symbol, b
// cycling over seven boundaries spread across the symbol.
func BenchmarkForwardWindowedPrefix1024(b *testing.B) {
	f := MustPlan(1024)
	src := benchSignal(1024)
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ForwardWindowed(dst, src, 0, 128*(1+i%7))
	}
}

func BenchmarkDFTBin1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DFTBin(x, 1024, 511.3125)
	}
}

// BenchmarkDFTBinPair1024 probes both OSR 4 images of one bin (off = 3n/4)
// from one polyphase sweep; compare with two BenchmarkDFTBin1024 calls.
func BenchmarkDFTBinPair1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairSink, _ = DFTBinPair(x, 1024, 511.3125, 768)
	}
}

// pairSink keeps BenchmarkDFTBinPair1024's call from being optimised away.
var pairSink complex128

// BenchmarkSearchFineGridPair1024 is one candidate refinement as
// candidates() runs it at OSR 4: both images of a bin over ±19 steps of
// 1/16 bin (off = 3n/4), the coarse pass, endpoint probe and fine pass.
func BenchmarkSearchFineGridPair1024(b *testing.B) {
	x := benchSignal(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gridSink, _, _, _ = SearchFineGridPair(x, 1024, 511, 768, 19, 1.0/16)
	}
}

// gridSink keeps BenchmarkSearchFineGridPair1024's call from being
// optimised away.
var gridSink float64

// BenchmarkBinProbe1024 is one candidate's Spectral Edge Difference at
// OSR 4: a prefix-sum pass over a 1024-sample symbol at both images, then
// the folded power of the 2×10 sliding half-symbol windows. It replaces
// 20 BenchmarkForwardWindowed1024 transforms per symbol.
func BenchmarkBinProbe1024(b *testing.B) {
	const n, windows = 1024, 10
	x := benchSignal(n)
	p, err := NewBinProbe(n/4, 4)
	if err != nil {
		b.Fatal(err)
	}
	step := (n / 4) / windows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Load(x, 93)
		for w := 0; w < windows; w++ {
			probeSink += p.Power(w*step, w*step+n/2) + p.Power(n-w*step-n/2, n-w*step)
		}
	}
}

// probeSink keeps BenchmarkBinProbe1024's powers from being optimised away.
var probeSink float64
