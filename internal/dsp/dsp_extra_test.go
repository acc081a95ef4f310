package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestMustPlanCachesAndConcurrentUse(t *testing.T) {
	a := MustPlan(256)
	b := MustPlan(256)
	if a != b {
		t.Error("MustPlan did not cache")
	}
	// A plan must be usable from many goroutines at once.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			x := randSignal(r, 256)
			y := append([]complex128(nil), x...)
			a.Forward(y)
			a.Inverse(y)
			for i := range x {
				if cmplx.Abs(x[i]-y[i]) > 1e-9 {
					t.Errorf("goroutine %d: round trip failed", seed)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestMustPlanPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPlan(3) did not panic")
		}
	}()
	MustPlan(3)
}

func TestFFTSize(t *testing.T) {
	if MustPlan(64).Size() != 64 {
		t.Error("Size wrong")
	}
}

// TestForwardRedirectsOnWrongLength: a buffer whose length differs from the
// plan size is transformed by the cached plan of the matching size, and a
// non-power-of-two buffer is left unchanged — never a panic.
func TestForwardRedirectsOnWrongLength(t *testing.T) {
	// Impulse through a mismatched plan: the DFT of δ[0] is all ones, which
	// only happens if the length-8 transform actually ran.
	x := make([]complex128, 8)
	x[0] = 1
	MustPlan(16).Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("redirected transform bin %d = %v, want 1", i, v)
		}
	}
	// Non-power-of-two length: no radix-2 plan exists, input stays intact.
	y := []complex128{1, 2, 3}
	MustPlan(16).Forward(y)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Errorf("non-pow2 input modified: %v", y)
	}
	// Inverse and ForwardInto share the redirect path.
	MustPlan(16).Inverse(y)
	if y[0] != 1 || y[1] != 2 || y[2] != 3 {
		t.Errorf("non-pow2 Inverse modified input: %v", y)
	}
	z := make([]complex128, 8)
	MustPlan(16).ForwardInto(z, x)
	if cmplx.Abs(z[0]-8) > 1e-9 {
		t.Errorf("redirected ForwardInto DC bin = %v, want 8", z[0])
	}
}

// TestFFTTimeShiftProperty: a circular time shift multiplies the spectrum
// by a linear phase; the magnitudes are invariant.
func TestFFTTimeShiftProperty(t *testing.T) {
	n := 128
	f := MustPlan(n)
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	prop := func(seed int64, shiftRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		x := randSignal(r, n)
		shift := int(shiftRaw) % n
		shifted := make([]complex128, n)
		for i := range x {
			shifted[(i+shift)%n] = x[i]
		}
		fx := append([]complex128(nil), x...)
		fs := append([]complex128(nil), shifted...)
		f.Forward(fx)
		f.Forward(fs)
		for k := range fx {
			if math.Abs(cmplx.Abs(fx[k])-cmplx.Abs(fs[k])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDFTBinFractionalInterpolation: DFTBin at a fractional position of a
// fractional tone recovers full amplitude (no scalloping loss).
func TestDFTBinFractionalInterpolation(t *testing.T) {
	n := 256
	for _, bin := range []float64{10.0, 10.25, 10.5, 200.875} {
		x := make([]complex128, n)
		for i := range x {
			ang := 2 * math.Pi * bin * float64(i) / float64(n)
			x[i] = cmplx.Exp(complex(0, ang))
		}
		v := DFTBin(x, n, bin)
		if got := cmplx.Abs(v); math.Abs(got-float64(n)) > 1e-6 {
			t.Errorf("bin %g: |DFTBin| = %g, want %d", bin, got, n)
		}
	}
}

func TestRefinePeakRangeSpread(t *testing.T) {
	n := 256
	trueBin := 50.75
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * trueBin * float64(i) / float64(n)
		x[i] = cmplx.Exp(complex(0, ang))
	}
	// Starting 1 bin away with spread 0.5 cannot reach the tone...
	posNear, _ := RefinePeakRange(x, n, 52, 16, 0.5)
	if math.Abs(posNear-trueBin) < 0.2 {
		t.Errorf("spread 0.5 reached %g from bin 52 (outside range)", posNear)
	}
	// ...but spread 1.5 can.
	posFar, _ := RefinePeakRange(x, n, 52, 16, 1.5)
	if math.Abs(posFar-trueBin) > 0.1 {
		t.Errorf("spread 1.5 found %g, want %g", posFar, trueBin)
	}
}

func TestSpectrumScaleAndMax(t *testing.T) {
	s := Spectrum{1, 5, 3}
	s.Scale(2)
	if s[1] != 10 {
		t.Error("Scale wrong")
	}
	v, at := s.Max()
	if v != 10 || at != 1 {
		t.Error("Max wrong")
	}
	var empty Spectrum
	if v, at := empty.Max(); v != 0 || at != -1 {
		t.Error("empty Max wrong")
	}
}

func TestFindPeaksEmptyAndSingle(t *testing.T) {
	if p := FindPeaks(nil, 0, 0); p != nil {
		t.Error("nil spectrum produced peaks")
	}
	if p := FindPeaks(Spectrum{5}, 1, 0); len(p) != 1 || p[0].Bin != 0 {
		t.Error("single-bin spectrum")
	}
	if p := FindPeaks(Spectrum{5}, 6, 0); len(p) != 0 {
		t.Error("threshold not applied to single bin")
	}
}

func TestTopPeaksZeroSpectrum(t *testing.T) {
	if p := TopPeaks(make(Spectrum, 8), 0.5, 3); p != nil {
		t.Error("zero spectrum produced peaks")
	}
}

// TestNoiseFloorMatchesSortedMedian: the quickselect median equals the
// sorted-slice median exactly, for odd and even lengths, ties and runs of
// equal values (a silent window's all-zero spectrum).
func TestNoiseFloorMatchesSortedMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 300; n++ {
		s := make(Spectrum, n)
		for i := range s {
			switch n % 3 {
			case 0:
				s[i] = rng.ExpFloat64()
			case 1:
				s[i] = float64(rng.Intn(4)) // heavy ties
			}
		}
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		want := sorted[n/2]
		if n%2 == 0 {
			want = 0.5 * (sorted[n/2-1] + sorted[n/2])
		}
		if got := NoiseFloorInto(make([]float64, n), s); got != want {
			t.Fatalf("n=%d: median %v, want %v", n, got, want)
		}
	}
}

func TestNoiseFloorEmpty(t *testing.T) {
	if NoiseFloor(nil) != 0 {
		t.Error("empty floor not 0")
	}
	if NoiseFloor(Spectrum{3}) != 3 {
		t.Error("single-bin floor")
	}
	if f := NoiseFloor(Spectrum{1, 3}); f != 2 {
		t.Errorf("even-length median = %g, want 2", f)
	}
}

func TestQuadInterpTinySpectra(t *testing.T) {
	if off, h := QuadInterp(Spectrum{7}, 0); off != 0 || h != 7 {
		t.Error("1-bin interp")
	}
	if off, h := QuadInterp(Spectrum{7, 7}, 1); off != 0 || h != 7 {
		t.Error("flat interp must return center")
	}
}

// TestIntersectClampsOnMismatch: mismatched spectra intersect over the
// common prefix, with missing bins treated as zero power.
func TestIntersectClampsOnMismatch(t *testing.T) {
	got := Intersect(nil, Spectrum{3}, Spectrum{1, 2})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Intersect = %v, want [1]", got)
	}
	// A pre-sized dst longer than the common prefix is zeroed beyond it.
	dst := Spectrum{9, 9, 9}
	Intersect(dst, Spectrum{3, 4}, Spectrum{1})
	if dst[0] != 1 || dst[1] != 0 || dst[2] != 0 {
		t.Errorf("Intersect into long dst = %v, want [1 0 0]", dst)
	}
	acc := Spectrum{5, 6, 7}
	IntersectInto(acc, Spectrum{2})
	if acc[0] != 2 || acc[1] != 0 || acc[2] != 0 {
		t.Errorf("IntersectInto = %v, want [2 0 0]", acc)
	}
}

func TestSignalEnergyAndPower(t *testing.T) {
	x := []complex128{3, 4i}
	if SignalEnergy(x) != 25 {
		t.Error("energy")
	}
	if SignalPower(x) != 12.5 {
		t.Error("power")
	}
	if SignalPower(nil) != 0 {
		t.Error("empty power")
	}
}
