package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// foldEdgeSignal draws an FFT output of length n for the fold tests, by
// family: 0 ordinary values; 1 ordinary values with sparse signed zeros,
// subnormals, ±Inf, NaN and magnitudes whose squares overflow; 2 signed
// zeros and subnormals, whose squares underflow so the energy is 0 or
// subnormal; 3 all signed zeros (energy 0); 4 ordinary values with one
// NaN (NaN energy); 5 magnitudes near 1e-160, whose folds are subnormal
// and whose inverse energy overflows.
func foldEdgeSignal(r *rand.Rand, n, family int) []complex128 {
	v := func() float64 {
		switch family {
		case 1:
			switch r.Intn(24) {
			case 0:
				return math.Copysign(0, r.NormFloat64())
			case 1:
				return r.NormFloat64() * 1e-310
			case 2:
				return math.Inf(1 - 2*r.Intn(2))
			case 3:
				return math.NaN()
			case 4:
				return r.NormFloat64() * 1e200
			}
		case 2:
			if r.Intn(4) == 0 {
				return r.NormFloat64() * 1e-310
			}
			return math.Copysign(0, r.NormFloat64())
		case 3:
			return math.Copysign(0, r.NormFloat64())
		case 5:
			return r.NormFloat64() * 1e-160
		}
		return r.NormFloat64()
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(v(), v())
	}
	if family == 4 && n > 0 {
		i := r.Intn(n)
		x[i] = complex(real(x[i]), math.NaN())
	}
	return x
}

// foldAcc draws an intersection accumulator of n bins: unit-scale values
// with scattered NaN, ±0 and +Inf, which the minimum must keep or replace
// exactly as IntersectInto does.
func foldAcc(r *rand.Rand, n int) Spectrum {
	acc := make(Spectrum, n)
	for i := range acc {
		switch r.Intn(12) {
		case 0:
			acc[i] = math.NaN()
		case 1:
			acc[i] = 0
		case 2:
			acc[i] = math.Copysign(0, -1)
		case 3:
			acc[i] = math.Inf(1)
		default:
			acc[i] = r.Float64() * 2 / float64(n)
		}
	}
	return acc
}

// foldShape is one fold call's geometry: bins, osr, len(x), len(dst) and
// len(acc) (dst and acc are bins long unless stated).
type foldShape struct{ bins, osr, xlen, dlen, alen int }

// foldShapes lists the kernel's shapes (osr 2/4/8, bins 4…256 in steps of
// 4 plus random multiples of 4) and the fallback ones: osr 1, bins not a
// multiple of 4, a short x, a mismatched dst or acc.
func foldShapes(r *rand.Rand) []foldShape {
	var shapes []foldShape
	bins := []int{4, 8, 12, 16, 64, 128, 256}
	for i := 0; i < 6; i++ {
		bins = append(bins, 4*(1+r.Intn(64)))
	}
	for _, b := range bins {
		for _, osr := range []int{2, 4, 8} {
			shapes = append(shapes, foldShape{b, osr, b * osr, b, b})
		}
	}
	return append(shapes,
		foldShape{16, 1, 16, 16, 16},
		foldShape{64, 1, 64, 64, 64},
		foldShape{6, 4, 24, 6, 6},
		foldShape{10, 2, 20, 10, 10},
		foldShape{64, 4, 64*4 - 3, 64, 64},
		foldShape{64, 4, 64 * 3, 64, 64},
		foldShape{64, 4, 64 * 4, 63, 64},
		foldShape{64, 4, 64 * 4, 0, 64},
		foldShape{64, 4, 64 * 4, 64, 60},
		foldShape{64, 4, 64 * 4, 64, 68},
	)
}

// intersectFoldRef is IntersectFold as the Go composition it replaced:
// difference the whole of x, fold with the portable loop, normalise,
// intersect.
func intersectFoldRef(acc, sub Spectrum, full, x []complex128, bins, osr int) {
	y := append([]complex128(nil), x...)
	if full != nil {
		for i := range min(len(full), len(y)) {
			y[i] = full[i] - y[i]
		}
	}
	IntersectInto(acc, foldMagnitudeGo(sub, y, bins, osr).Normalize())
}

// TestIntersectFoldMatchesScalar checks IntersectFold (the fused vector
// passes when the CPU has AVX2 and the shape fits) against the Go
// composition bit for bit, or both NaN, in prefix and suffix mode over
// every foldShapes shape and foldEdgeSignal family, with accumulators
// holding NaN and ±0. A prefix call must leave x as it was, and no call
// may write full.
func TestIntersectFoldMatchesScalar(t *testing.T) {
	t.Logf("fused fold in use: %v", useAVX2)
	r := rand.New(rand.NewSource(41))
	vec := 0
	for _, sh := range foldShapes(r) {
		for family := 0; family < 6; family++ {
			for trial := 0; trial < 8; trial++ {
				x := foldEdgeSignal(r, sh.xlen, family)
				var full []complex128
				if trial&1 == 1 {
					full = foldEdgeSignal(r, sh.xlen, family)
					if family == 3 && trial&2 == 2 {
						copy(full, x) // an all-zero suffix from two equal windows
					}
				}
				acc := foldAcc(r, sh.alen)
				want := append(Spectrum(nil), acc...)
				intersectFoldRef(want, make(Spectrum, sh.dlen), full, x, sh.bins, sh.osr)
				x0 := append([]complex128(nil), x...)
				full0 := append([]complex128(nil), full...)
				sub := make(Spectrum, sh.dlen)
				if sh.osr > 1 && sh.bins%4 == 0 && sh.xlen == sh.bins*sh.osr && sh.dlen == sh.bins && sh.alen == sh.bins {
					vec++
				}
				IntersectFold(acc, sub, full, x, sh.bins, sh.osr)
				for i := range acc {
					if !sameBits(acc[i], want[i]) {
						t.Fatalf("%+v family=%d suffix=%v bin %d: IntersectFold %v, composition %v", sh, family, full != nil, i, acc[i], want[i])
					}
				}
				for i := range full {
					if !sameComplexBits(full[i], full0[i]) {
						t.Fatalf("%+v family=%d: full[%d] written", sh, family, i)
					}
				}
				if full == nil {
					for i := range x {
						if !sameComplexBits(x[i], x0[i]) {
							t.Fatalf("%+v family=%d: prefix call wrote x[%d]", sh, family, i)
						}
					}
				}
			}
		}
	}
	if vec == 0 {
		t.Fatal("no case has the vector fold's shape")
	}
	t.Logf("%d cases on the vector fold's shapes", vec)
}

// TestFoldMagnitudeMatchesScalar checks the dispatching FoldMagnitude
// against the portable loop bit for bit, or both NaN, over the same
// shapes and families, dst full of stale values.
func TestFoldMagnitudeMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, sh := range foldShapes(r) {
		for family := 0; family < 6; family++ {
			for trial := 0; trial < 4; trial++ {
				x := foldEdgeSignal(r, sh.xlen, family)
				got := make(Spectrum, sh.dlen)
				for i := range got {
					got[i] = 42
				}
				got = FoldMagnitude(got, x, sh.bins, sh.osr)
				want := foldMagnitudeGo(nil, x, sh.bins, sh.osr)
				if len(got) != len(want) {
					t.Fatalf("%+v: len %d, want %d", sh, len(got), len(want))
				}
				for i := range got {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%+v family=%d bin %d: FoldMagnitude %v, portable %v", sh, family, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkIntersectFold1024 is one ICSS boundary's work after its
// transform at SF8/OSR4 (a 1024-point spectrum, 256 bins): the prefix
// and then the suffix intersection step.
func BenchmarkIntersectFold1024(b *testing.B) {
	const bins, osr = 256, 4
	full := benchSignal(bins * osr)
	x := benchSignal(bins * osr)
	for i := range x {
		x[i] *= 0.5
	}
	acc := make(Spectrum, bins)
	sub := make(Spectrum, bins)
	for i := range acc {
		acc[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectFold(acc, sub, nil, x, bins, osr)
		IntersectFold(acc, sub, full, x, bins, osr)
	}
}
