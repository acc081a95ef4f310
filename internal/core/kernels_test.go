package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cic/internal/chirp"
	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/rx"
)

// kernelCfg is testCfg at the given spreading factor and oversampling.
func kernelCfg(sf, osr int) frame.Config {
	cfg := testCfg()
	cfg.Chirp.SF, cfg.PHY.SF, cfg.Chirp.OSR = sf, sf, osr
	return cfg
}

// loadedDemodulator returns a demodulator whose window holds three
// symbols with boundaries inside the window (a C_prev/C_next pair and a
// weaker full tone) plus noise, de-chirped at a small CFO.
func loadedDemodulator(t *testing.T, cfg frame.Config, opts Options) *Demodulator {
	t.Helper()
	dm, err := NewDemodulator(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := chirp.NewGenerator(cfg.Chirp)
	if err != nil {
		t.Fatal(err)
	}
	m := cfg.Chirp.SamplesPerSymbol()
	n := cfg.Chirp.ChipCount()
	r := rand.New(rand.NewSource(int64(m)))
	win := make([]complex128, m)
	sym := make([]complex128, m)
	gen.Symbol(win, n/3)
	tau := m/3 + 5
	gen.Symbol(sym, n/5)
	for i := 0; i < tau; i++ {
		win[i] += 0.8 * sym[(i+m-tau)%m]
	}
	gen.Symbol(sym, 2*n/3)
	for i := tau; i < m; i++ {
		win[i] += 0.6 * sym[i-tau]
	}
	for i := range win {
		win[i] += complex(0.3*r.NormFloat64(), 0.3*r.NormFloat64())
	}
	dm.d.LoadWindow(&rx.MemorySource{Samples: win}, 0, 900)
	return dm
}

// TestICSSSuffixByDifference: the suffix spectrum ICSS intersects, formed
// as the full window's transform minus the prefix transform, matches the
// direct zero-padded transform of the suffix folded the same way, at
// every swept boundary. Both sides are unit-energy normalised, so the
// 1e-9 bound is relative to the window's spectral energy.
func TestICSSSuffixByDifference(t *testing.T) {
	for _, osr := range []int{1, 2, 4, 8} {
		cfg := kernelCfg(8, osr)
		dm := loadedDemodulator(t, cfg, Options{})
		m := cfg.Chirp.SamplesPerSymbol()
		dm.intersectICSS(nil) // loads the full window's transform
		for b := 1; b < m; b += m/64 + 1 {
			for i := range dm.acc {
				dm.acc[i] = math.Inf(1)
			}
			if used := dm.intersectSplit(b, 0, false, true); used != 1 {
				t.Fatalf("OSR %d b=%d: intersectSplit used %d sub-symbols, want 1", osr, b, used)
			}
			want := dm.d.SubSymbolSpectrum(nil, b, m).Normalize()
			for k, w := range want {
				if d := math.Abs(dm.acc[k] - w); d > 1e-9 {
					t.Fatalf("OSR %d b=%d bin %d: suffix by difference %g, direct %g (|Δ| %g)", osr, b, k, dm.acc[k], w, d)
				}
			}
		}
	}
}

// sedEdgesDirect is the transform-per-window Spectral Edge Difference the
// candidate-bin kernel replaced: every sliding half-symbol window's full
// folded spectrum, intersected per edge.
func sedEdgesDirect(dm *Demodulator) (lh, rh dsp.Spectrum) {
	m := dm.cfg.Chirp.SamplesPerSymbol()
	nb := dm.cfg.Chirp.ChipCount()
	n := dm.opts.SEDWindows
	half := m / 2
	step := max((m/4)/n, 1)
	lh, rh = make(dsp.Spectrum, nb), make(dsp.Spectrum, nb)
	for i := range lh {
		lh[i], rh[i] = math.Inf(1), math.Inf(1)
	}
	for i := 0; i < n; i++ {
		from := i * step
		dsp.IntersectInto(lh, dm.d.SubSymbolSpectrum(nil, from, from+half))
		to := m - i*step
		dsp.IntersectInto(rh, dm.d.SubSymbolSpectrum(nil, to-half, to))
	}
	return lh, rh
}

// TestSEDEdgesMatchSubSymbolSpectrum: the candidate-bin SED kernel returns,
// at every bin, the edge powers the per-window FFTs give. SEDWindows = M
// slides the windows past the symbol's ends (clamping engages once
// SEDWindows exceeds M/2+1), so the kernel must clamp exactly as
// ForwardWindowed does.
func TestSEDEdgesMatchSubSymbolSpectrum(t *testing.T) {
	for _, osr := range []int{1, 2, 4, 8} {
		cfg := kernelCfg(7, osr)
		m := cfg.Chirp.SamplesPerSymbol()
		for _, windows := range []int{1, 10, m} {
			t.Run(fmt.Sprintf("osr%d/windows%d", osr, windows), func(t *testing.T) {
				dm := loadedDemodulator(t, cfg, Options{SEDWindows: windows})
				tol := 1e-9 * dm.d.SubSymbolSpectrum(nil, 0, m).Energy()
				wantL, wantR := sedEdgesDirect(dm)
				for b := range wantL {
					lh, rh := dm.sedEdges(b)
					if math.Abs(lh-wantL[b]) > tol || math.Abs(rh-wantR[b]) > tol {
						t.Fatalf("bin %d: kernel (%g, %g), per-window FFT (%g, %g), tolerance %g",
							b, lh, rh, wantL[b], wantR[b], tol)
					}
				}
			})
		}
	}
}

// TestDemodulatorAllocFree: on a warmed demodulator, decoding a symbol of
// the seeded five-packet collision — the pick and the ranked alternates —
// allocates nothing, under every option set that changes which kernels
// run.
func TestDemodulatorAllocFree(t *testing.T) {
	cfg, src, pkts := alternatesFixture(t)
	for _, v := range []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"strawman", Options{Strawman: true}},
		{"no-sed", Options{DisableSED: true}},
	} {
		dm, err := NewDemodulator(cfg, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		pkt, others := pkts[1], othersOf(pkts, 1)
		// Warm every arena on the whole packet first.
		for s := 0; s < pkt.NSymbols; s++ {
			dm.PickSymbolAlternates(src, pkt, s, others)
		}
		s := 0
		next := func() int { s = (s + 1) % pkt.NSymbols; return s }
		if a := testing.AllocsPerRun(50, func() { dm.DemodulateSymbol(src, pkt, next(), others) }); a != 0 {
			t.Errorf("%s: DemodulateSymbol %v allocs/op, want 0", v.name, a)
		}
		if a := testing.AllocsPerRun(50, func() { dm.PickSymbolAlternates(src, pkt, next(), others) }); a != 0 {
			t.Errorf("%s: PickSymbolAlternates %v allocs/op, want 0", v.name, a)
		}
	}
}
