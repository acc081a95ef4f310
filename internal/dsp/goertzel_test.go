package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refDFTBin is DFTBin on the portable kernel alone.
func refDFTBin(x []complex128, n int, bin float64) complex128 {
	theta := binAngle(bin, n)
	if !polyphaseLen(len(x)) {
		return dftBinGoertzel(x, theta)
	}
	s := polyphaseSums(x, 4*theta)
	return s.combine(theta)
}

// refDFTBinPair is DFTBinPair on the portable kernel alone, with the high
// probe's position given by the caller as searchGridRef computes it.
func refDFTBinPair(x []complex128, n int, binLo, binHi float64, off int) (lo, hi complex128) {
	if !pairShares(len(x), n, off) {
		return refDFTBin(x, n, binLo), refDFTBin(x, n, binHi)
	}
	thLo, thHi := binAngle(binLo, n), binAngle(binHi, n)
	s := polyphaseSums(x, 4*thLo)
	return s.combine(thLo), s.combine(thHi)
}

// searchGridRef is the per-probe two-stage search that searchGrid batches:
// it evaluates and offers each probe in turn on the portable kernel. The
// batched search must match it bit for bit.
func searchGridRef(x []complex128, n int, base float64, off, steps int, step float64, pair bool) (loPos, loPow, hiPos, hiPow float64) {
	hiBase := base + float64(off)
	lo := gridBest{s: -steps, pow: -1}
	hi := lo
	probe := func(s int, wantLo, wantHi bool) {
		bl, bh := base+float64(s)*step, hiBase+float64(s)*step
		switch {
		case wantLo && wantHi:
			vl, vh := refDFTBinPair(x, n, bl, bh, off)
			lo.offer(s, vl)
			hi.offer(s, vh)
		case wantLo:
			lo.offer(s, refDFTBin(x, n, bl))
		case wantHi:
			hi.offer(s, refDFTBin(x, n, bh))
		}
	}
	const stride = 4
	if steps <= 2*stride {
		for s := -steps; s <= steps; s++ {
			probe(s, true, pair)
		}
		return base + float64(lo.s)*step, lo.pow, hiBase + float64(hi.s)*step, hi.pow
	}
	for s := -steps; s <= steps; s += stride {
		probe(s, true, pair)
	}
	probe(steps, lo.s+stride > steps, pair && hi.s+stride > steps)
	loFrom, loTo := max(lo.s-stride+1, -steps), min(lo.s+stride-1, steps)
	hiFrom, hiTo := max(hi.s-stride+1, -steps), min(hi.s+stride-1, steps)
	from, to := loFrom, loTo
	if pair {
		from, to = min(from, hiFrom), max(to, hiTo)
	}
	for s := from; s <= to; s++ {
		if (s+steps)%stride == 0 {
			continue
		}
		probe(s, s >= loFrom && s <= loTo, pair && s >= hiFrom && s <= hiTo)
	}
	return base + float64(lo.s)*step, lo.pow, hiBase + float64(hi.s)*step, hi.pow
}

// sameBits reports whether a and b have identical bits, or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameComplexBits(a, b complex128) bool {
	return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b))
}

// edgeSignal draws a window whose components mix ordinary values with
// signed zeros, subnormals and magnitudes large enough to overflow the
// recurrence.
func edgeSignal(r *rand.Rand, n int) []complex128 {
	v := func() float64 {
		switch r.Intn(8) {
		case 0:
			return math.Copysign(0, r.NormFloat64())
		case 1:
			return r.NormFloat64() * 1e-310 // subnormal
		case 2:
			return r.NormFloat64() * 1e300
		default:
			return r.NormFloat64()
		}
	}
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(v(), v())
	}
	return x
}

// TestSweepPolyphaseMatchesScalar checks the batched sweep against the
// scalar polyphaseSums bit for bit, for every batch size up to 7 (full
// three-angle passes and padded remainders) at odd and even step counts,
// on plain and edge-valued windows and at angles with 2·cos 4θ = ±2 or 0.
func TestSweepPolyphaseMatchesScalar(t *testing.T) {
	t.Logf("batched AVX2 kernel in use: %v", useAVX2)
	r := rand.New(rand.NewSource(23))
	special := []float64{0, math.Pi, -math.Pi / 2, math.Pi / 2, 2 * math.Pi}
	for _, m := range []int{8, 12, 1020, 1024, 4096} {
		for _, x := range [][]complex128{randSignal(r, m), edgeSignal(r, m), make([]complex128, m)} {
			for batch := 1; batch <= 7; batch++ {
				theta4 := make([]float64, batch)
				for i := range theta4 {
					if r.Intn(4) == 0 {
						theta4[i] = special[r.Intn(len(special))]
					} else {
						theta4[i] = 8 * math.Pi * (r.Float64() - 0.5)
					}
				}
				got := make([]phaseSums, batch)
				sweepPolyphase(x, theta4, got)
				for i, th := range theta4 {
					want := polyphaseSums(x, th)
					for ph := range want {
						if !sameComplexBits(got[i][ph], want[ph]) {
							t.Fatalf("m=%d batch=%d angle %d (4θ=%g) phase %d: batched %v, scalar %v", m, batch, i, th, ph, got[i][ph], want[ph])
						}
					}
				}
			}
		}
	}
}

// TestDFTBinMatchesScalar: DFTBin and DFTBinPair give the portable
// kernel's bits.
func TestDFTBinMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, m := range []int{8, 12, 601, 1024} {
		x := randSignal(r, m)
		for trial := 0; trial < 32; trial++ {
			bin := 1024 * (2*r.Float64() - 0.5)
			if got, want := DFTBin(x, 1024, bin), refDFTBin(x, 1024, bin); !sameComplexBits(got, want) {
				t.Fatalf("m=%d bin=%g: DFTBin %v, scalar %v", m, bin, got, want)
			}
			lo, hi := DFTBinPair(x, 1024, bin, 768)
			wantLo, wantHi := refDFTBinPair(x, 1024, bin, bin+768, 768)
			if !sameComplexBits(lo, wantLo) || !sameComplexBits(hi, wantHi) {
				t.Fatalf("m=%d bin=%g: DFTBinPair (%v, %v), scalar (%v, %v)", m, bin, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// TestSearchGridMatchesPerProbe checks the batched SearchFineGrid and
// SearchFineGridPair against the per-probe reference, bit for bit: pair
// and single searches, the OSR 2 and 4 offsets (shared sweeps) and OSR 8
// (separate sweeps), every grid size from 2 to 24 steps (the single-stage
// path and the coarse/endpoint/fine path) plus a 60-step grid whose
// coarse pass overflows one batch; tones placed anywhere in and past the
// grid, noise windows and all-zero windows (every probe ties), so the
// endpoint probe, clipped fine windows and the first-max rule all decide;
// and windows whose length the polyphase path cannot stride over.
func TestSearchGridMatchesPerProbe(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	const chips = 128
	grids := []int{60}
	for steps := 2; steps <= 24; steps++ {
		grids = append(grids, steps)
	}
	for _, osr := range []int{2, 4, 8} {
		n, off := osr*chips, (osr-1)*chips
		for _, length := range []int{n, n - 4, n - 3, n/2 + 1, 7} {
			for trial := 0; trial < 6*len(grids); trial++ {
				steps := grids[trial%len(grids)]
				step := []float64{1.0 / 16, 1.0 / 8, 1.0 / 4}[r.Intn(3)]
				f := 20 + 10*r.Float64()
				var x []complex128
				switch r.Intn(8) {
				case 0: // every probe ties at zero power: the first one wins
					x = make([]complex128, n)
				case 1, 2, 3, 4: // noise: lobes anywhere, endpoint probes decide
					x = randSignal(r, n)
				default:
					x = twoImageTone(r, n, off, f, r.Intn(n))
				}
				x = x[n-length:]
				base := f + float64(steps)*step*2.4*(r.Float64()-0.5)
				loPos, loPow, hiPos, hiPow := SearchFineGridPair(x, n, base, off, steps, step)
				wLoPos, wLoPow, wHiPos, wHiPow := searchGridRef(x, n, base, off, steps, step, true)
				if !sameBits(loPos, wLoPos) || !sameBits(loPow, wLoPow) || !sameBits(hiPos, wHiPos) || !sameBits(hiPow, wHiPow) {
					t.Fatalf("osr=%d len=%d steps=%d base=%g: pair (%g, %g, %g, %g), reference (%g, %g, %g, %g)",
						osr, length, steps, base, loPos, loPow, hiPos, hiPow, wLoPos, wLoPow, wHiPos, wHiPow)
				}
				pos, pow := SearchFineGrid(x, n, base+float64(off), steps, step)
				wPos, wPow, _, _ := searchGridRef(x, n, base+float64(off), 0, steps, step, false)
				if !sameBits(pos, wPos) || !sameBits(pow, wPow) {
					t.Fatalf("osr=%d len=%d steps=%d base=%g: single (%g, %g), reference (%g, %g)", osr, length, steps, base, pos, pow, wPos, wPow)
				}
			}
		}
	}
}

// TestSearchGridPassOrder pins the pass boundaries of the batched search:
// the endpoint probe is decided on the coarse pass's winner, and the fine
// windows on the winner after the endpoint probe. On noise windows eight
// times the transform length, whose DTFT turns within one grid step, a
// search that fixed either decision one pass early probes a different set
// in a few trials per thousand.
func TestSearchGridPassOrder(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	const n, off = 32, 24
	for trial := 0; trial < 10000; trial++ {
		steps := 9 + 2*r.Intn(8) // odd, so the endpoint is not a coarse point
		step := []float64{1.0 / 16, 1.0 / 8, 1.0 / 4}[r.Intn(3)]
		x := randSignal(r, 8*n)
		var got, want [4]float64
		got[0], got[1], got[2], got[3] = SearchFineGridPair(x, n, 10, off, steps, step)
		want[0], want[1], want[2], want[3] = searchGridRef(x, n, 10, off, steps, step, true)
		if got != want {
			t.Fatalf("trial %d steps=%d step=%g: batched %v, reference %v", trial, steps, step, got, want)
		}
	}
}
