package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSpectrum(r *rand.Rand, n int) Spectrum {
	s := make(Spectrum, n)
	for i := range s {
		s[i] = r.Float64() * 10
	}
	return s
}

func TestFoldMagnitudeOSR1(t *testing.T) {
	x := []complex128{1, 2i, complex(3, 4), -1}
	got := FoldMagnitude(nil, x, 4, 1)
	want := []float64{1, 4, 25, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("bin %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestFoldPowerMatchesFoldMagnitude: folding the squared FFT output is
// bit-identical to folding the FFT output, at every oversampling ratio
// and for short inputs.
func TestFoldPowerMatchesFoldMagnitude(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const bins = 64
	for _, osr := range []int{1, 2, 4, 8} {
		for _, size := range []int{bins * osr, bins*osr - 3} {
			x := make([]complex128, size)
			for i := range x {
				x[i] = complex(r.NormFloat64()*100, r.NormFloat64()*100)
			}
			p := make(Spectrum, size)
			for i, v := range x {
				p[i] = real(v)*real(v) + imag(v)*imag(v)
			}
			want := FoldMagnitude(nil, x, bins, osr)
			got := FoldPower(nil, p, bins, osr)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("osr %d, len %d: bin %d = %v, FoldMagnitude %v", osr, size, k, got[k], want[k])
				}
			}
		}
	}
}

func TestFoldMagnitudeSumsImages(t *testing.T) {
	bins, osr := 4, 4
	x := make([]complex128, bins*osr)
	x[1] = complex(3, 0)              // image j=0 at bin 1
	x[(osr-1)*bins+1] = complex(0, 4) // image j=osr-1 at bin 1
	x[bins+2] = complex(9, 9)         // middle image: must be ignored
	got := FoldMagnitude(nil, x, bins, osr)
	// Amplitude fold: (|3| + |4i|)² = 49.
	if math.Abs(got[1]-49) > 1e-12 {
		t.Errorf("bin 1 = %g, want 49", got[1])
	}
	if got[2] != 0 {
		t.Errorf("bin 2 = %g, want 0 (middle images excluded)", got[2])
	}
}

func TestFoldMagnitudeReusesDst(t *testing.T) {
	x := make([]complex128, 8)
	dst := make(Spectrum, 4)
	dst[0] = 42 // stale value that must be overwritten
	out := FoldMagnitude(dst, x, 4, 2)
	if &out[0] != &dst[0] {
		t.Fatal("FoldMagnitude did not reuse dst")
	}
	if out[0] != 0 {
		t.Errorf("stale value not overwritten: %g", out[0])
	}
}

func TestNormalizeUnitEnergy(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := randSpectrum(r, 64).Normalize()
	if e := s.Energy(); math.Abs(e-1) > 1e-12 {
		t.Errorf("energy after normalize = %g", e)
	}
	z := make(Spectrum, 4)
	z.Normalize() // must not panic or produce NaN
	for _, v := range z {
		if v != 0 {
			t.Error("zero spectrum mutated by Normalize")
		}
	}
}

func TestIntersectCommutativeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSpectrum(r, 32), randSpectrum(r, 32)
		ab := Intersect(nil, a, b)
		ba := Intersect(nil, b, a)
		for i := range ab {
			if ab[i] != ba[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error("P1 commutativity violated:", err)
	}
}

func TestIntersectAssociativeProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randSpectrum(r, 32), randSpectrum(r, 32), randSpectrum(r, 32)
		left := Intersect(nil, Intersect(nil, a, b), c)
		right := Intersect(nil, a, Intersect(nil, b, c))
		for i := range left {
			if left[i] != right[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error("P1 associativity violated:", err)
	}
}

func TestIntersectIdempotentAndBounded(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randSpectrum(r, 16), randSpectrum(r, 16)
		aa := Intersect(nil, a, a)
		ab := Intersect(nil, a, b)
		for i := range a {
			if aa[i] != a[i] {
				return false // idempotent
			}
			if ab[i] > a[i] || ab[i] > b[i] {
				return false // bounded above by both inputs
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestIntersectPreservesResolution checks property P2: when one spectrum has
// a sharp (high-resolution) peak and the other a wide (low-resolution) peak
// at the same frequency, the intersection retains the sharp shape.
func TestIntersectPreservesResolution(t *testing.T) {
	n := 64
	sharp := make(Spectrum, n)
	wide := make(Spectrum, n)
	center := 32
	for i := 0; i < n; i++ {
		d := float64(i - center)
		sharp[i] = math.Exp(-d * d / 2) // σ=1
		wide[i] = math.Exp(-d * d / 50) // σ=5
	}
	got := Intersect(nil, sharp, wide)
	// The intersection must everywhere equal the sharp spectrum near the
	// peak (sharp <= wide around the lobe center).
	for i := center - 3; i <= center+3; i++ {
		if got[i] != sharp[i] {
			t.Errorf("bin %d: intersection %g != sharp %g", i, got[i], sharp[i])
		}
	}
	// Width check: count bins above half-max.
	width := func(s Spectrum) int {
		maxV, _ := s.Max()
		c := 0
		for _, v := range s {
			if v > maxV/2 {
				c++
			}
		}
		return c
	}
	if width(got) > width(sharp) {
		t.Errorf("intersection width %d > sharp width %d", width(got), width(sharp))
	}
}

func TestIntersectInto(t *testing.T) {
	acc := Spectrum{5, 1, 7}
	IntersectInto(acc, Spectrum{3, 2, 9})
	want := Spectrum{3, 1, 7}
	for i := range want {
		if acc[i] != want[i] {
			t.Errorf("bin %d = %g, want %g", i, acc[i], want[i])
		}
	}
}

func TestFindPeaks(t *testing.T) {
	s := Spectrum{0, 5, 1, 0, 3, 0, 0, 2}
	peaks := FindPeaks(s, 0.5, 0)
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3: %+v", len(peaks), peaks)
	}
	if peaks[0].Bin != 1 || peaks[1].Bin != 4 || peaks[2].Bin != 7 {
		t.Errorf("peak order wrong: %+v", peaks)
	}
	limited := FindPeaks(s, 0.5, 2)
	if len(limited) != 2 || limited[0].Bin != 1 {
		t.Errorf("maxPeaks truncation wrong: %+v", limited)
	}
}

func TestFindPeaksCircularWrap(t *testing.T) {
	// Peak at bin 0 with wrap-around neighbours.
	s := Spectrum{9, 1, 0, 0, 0, 0, 0, 2}
	peaks := FindPeaks(s, 0, 1)
	if len(peaks) != 1 || peaks[0].Bin != 0 {
		t.Errorf("wrap-around peak not found: %+v", peaks)
	}
}

func TestTopPeaksThreshold(t *testing.T) {
	s := Spectrum{0, 10, 0, 4, 0, 0.5, 0}
	peaks := TopPeaks(s, 0.3, 0)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2 (0.5 below 30%% of max): %+v", len(peaks), peaks)
	}
}

func TestNoiseFloorRobustToPeaks(t *testing.T) {
	s := make(Spectrum, 100)
	for i := range s {
		s[i] = 1
	}
	s[10] = 1000
	s[20] = 2000
	if nf := NoiseFloor(s); math.Abs(nf-1) > 1e-12 {
		t.Errorf("noise floor = %g, want 1", nf)
	}
}

func TestQuadInterpCenteredTone(t *testing.T) {
	// Symmetric peak: offset must be 0.
	s := Spectrum{0, 1, 4, 1, 0}
	off, h := QuadInterp(s, 2)
	if off != 0 || h < 4 {
		t.Errorf("off=%g h=%g, want off=0 h>=4", off, h)
	}
	// Skewed peak leans toward the heavier neighbour.
	s2 := Spectrum{0, 3, 4, 1, 0}
	off2, _ := QuadInterp(s2, 2)
	if off2 >= 0 {
		t.Errorf("offset %g, want negative (toward bin 1)", off2)
	}
}

func TestWrapToHalf(t *testing.T) {
	cases := []struct{ in, half, want float64 }{
		{0, 0.5, 0},
		{0.6, 0.5, -0.4},
		{-0.6, 0.5, 0.4},
		{1.0, 0.5, 0},
		{127, 128, 127},
		{129, 128, -127},
	}
	for _, c := range cases {
		if got := WrapToHalf(c.in, c.half); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapToHalf(%g,%g) = %g, want %g", c.in, c.half, got, c.want)
		}
	}
}

func TestDBConversions(t *testing.T) {
	if DB(10) != 10 || DB(100) != 20 {
		t.Error("DB wrong")
	}
	if math.Abs(FromDB(3)-1.9952623) > 1e-6 {
		t.Error("FromDB wrong")
	}
	if math.Abs(AmplitudeFromDB(6)-1.9952623) > 1e-6 {
		t.Error("AmplitudeFromDB wrong")
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) must be -Inf")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %g", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("stddev = %g", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty input must yield 0")
	}
}
