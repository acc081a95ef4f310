package rx

import (
	"math"
	"testing"

	"cic/internal/channel"
	"cic/internal/frame"
)

// TestSynchronizeAccuracyGrid sweeps sample offsets × CFOs and requires
// sample-exact timing (±2) and quarter-bin CFO accuracy everywhere.
func TestSynchronizeAccuracyGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep")
	}
	cfg := testCfg()
	m := cfg.Chirp.SamplesPerSymbol()
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bw := cfg.Chirp.BinWidth()
	for _, startOff := range []int64{0, 1, 3, 513, 1021} {
		for _, cfo := range []float64{0, 0.4 * bw, -2.7 * bw, 8 * bw, -12.3 * bw} {
			start := int64(6000) + startOff
			src, _ := buildAir(t, cfg, []byte("grid"), start, 25, cfo, true, start+int64(cfo))
			pkt, ok := det.Synchronize(src, start+int64(10*m))
			if !ok {
				t.Errorf("off=%d cfo=%.0f: sync failed", startOff, cfo)
				continue
			}
			if d := abs64(pkt.Start - start); d > 2 {
				t.Errorf("off=%d cfo=%.0f: start error %d", startOff, cfo, d)
			}
			// The effective CFO may absorb up to one sample of timing
			// (±binWidth/OSR); allow that plus a quarter bin.
			tol := bw/float64(cfg.Chirp.OSR) + bw/4
			if d := math.Abs(pkt.CFOHz - cfo); d > tol {
				t.Errorf("off=%d cfo=%.0f: cfo error %.1f Hz (tol %.1f)", startOff, cfo, d, tol)
			}
		}
	}
}

// TestSynchronizeRejectsExcessCFO: hypotheses beyond maxCFOBins are
// interferer tones and must not produce a packet.
func TestSynchronizeRejectsExcessCFO(t *testing.T) {
	cfg := testCfg()
	m := cfg.Chirp.SamplesPerSymbol()
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A CFO of 32 bins exceeds the 24-bin budget.
	start := int64(6000)
	src, _ := buildAir(t, cfg, []byte("toofar"), start, 25, 32*cfg.Chirp.BinWidth(), false, 1)
	if pkt, ok := det.Synchronize(src, start+int64(10*m)); ok {
		t.Errorf("accepted packet with out-of-budget CFO: %v", pkt)
	}
}

// TestScanRangeEquivalence: scanning the span in contiguous pieces, each
// handed the packets found so far, finds exactly what one whole-span scan
// finds, for both scans (the gateway depends on this). Pieces shorter
// than a symbol make the up-chirp run span many calls. A rescan handed
// the result finds nothing new.
func TestScanRangeEquivalence(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	src, start := buildAir(t, cfg, []byte("range equivalence"), 30000, 25, -1900, true, 11)
	s, e := src.Span()
	for _, tc := range []struct {
		name  string
		whole func(*Detector, SampleSource) []*Packet
		part  func(*Detector, SampleSource, int64, int64, []*Packet) []*Packet
	}{
		{"downchirp", (*Detector).ScanDownchirp, (*Detector).ScanDownchirpRange},
		{"upchirp", (*Detector).ScanUpchirp, (*Detector).ScanUpchirpRange},
	} {
		det, err := NewDetector(cfg, DetectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		whole := tc.whole(det, src)
		if len(whole) != 1 || abs64(whole[0].Start-start) > 2 {
			t.Fatalf("%s: whole scan found %v", tc.name, whole)
		}
		var pieces []*Packet
		for from := s - m; from < e; from += 700 {
			pieces = append(pieces, tc.part(det, src, from, min(from+700, e), pieces)...)
		}
		if len(pieces) != 1 || pieces[0].Start != whole[0].Start || pieces[0].CFOHz != whole[0].CFOHz {
			t.Errorf("%s: piecewise scan found %v, whole scan %v", tc.name, pieces, whole)
		}
		if again := tc.part(det, src, s-m, e, whole); len(again) != 0 {
			t.Errorf("%s: rescan re-detected tracked packets: %v", tc.name, again)
		}
	}
}

// TestVerifyScoreReflectsQuality: a clean high-SNR packet scores the full
// 10; degrading SNR may lower the score but never below the acceptance
// threshold for a detectable packet.
func TestVerifyScoreReflectsQuality(t *testing.T) {
	cfg := testCfg()
	m := cfg.Chirp.SamplesPerSymbol()
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, start := buildAir(t, cfg, []byte("clean"), 9000, 30, 500, true, 12)
	pkt, ok := det.Synchronize(src, start+int64(10*m))
	if !ok || pkt.Score != 10 {
		t.Errorf("clean packet score %d, want 10", pkt.Score)
	}
}

// TestDownchirpBeatsUpchirpUnderCollision: with several overlapping
// packets, the down-chirp scan must find at least as many as the
// conventional (TopK=1) up-chirp scan — the paper's §5.8 claim behind
// Figs 32–35.
func TestDownchirpBeatsUpchirpUnderCollision(t *testing.T) {
	cfg := testCfg()
	mod, err := frame.NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	var ems []channel.Emission
	starts := []int64{4096, 4096 + 9*m + 301, 4096 + 19*m + 77, 4096 + 30*m + 512}
	for i, start := range starts {
		wave, _, err := mod.Modulate([]byte("collision detect test!"))
		if err != nil {
			t.Fatal(err)
		}
		ems = append(ems, channel.Emission{Start: start, Samples: channel.Apply(wave, channel.Impairments{
			Amplitude:  channel.AmplitudeForSNR(20 + 4*float64(i)),
			CFOHz:      float64(i*2000 - 3000),
			SampleRate: cfg.Chirp.SampleRate(),
		})})
	}
	src := SourceFromRenderer(channel.NewRenderer(ems, cfg.Chirp.OSR, 21))
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	match := func(pkts []*Packet) int {
		n := 0
		for _, want := range starts {
			for _, p := range pkts {
				if abs64(p.Start-want) <= 2 {
					n++
					break
				}
			}
		}
		return n
	}
	down := match(det.ScanDownchirp(src))
	up := match(det.ScanUpchirp(src))
	if down < up {
		t.Errorf("down-chirp found %d, up-chirp %d", down, up)
	}
	if down < 3 {
		t.Errorf("down-chirp scan found only %d of 4 overlapping packets", down)
	}
}
