package core

import (
	"testing"

	"cic/internal/channel"
	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
)

func testCfg() frame.Config {
	return frame.Config{
		Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4},
		PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
		SyncWord: 0x34,
	}
}

// collision builds an air with len(offsets) packets, packet i starting at
// base+offsets[i], each with its own payload, SNR and CFO.
func collision(t testing.TB, cfg frame.Config, offsets []int64, snrs []float64, cfos []float64, payloads [][]byte, noiseSeed int64) rx.SampleSource {
	if t != nil {
		t.Helper()
	}
	mod, err := frame.NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ems []channel.Emission
	for i, off := range offsets {
		wave, _, err := mod.Modulate(payloads[i])
		if err != nil {
			t.Fatal(err)
		}
		ems = append(ems, channel.Emission{
			Start: 4096 + off,
			Samples: channel.Apply(wave, channel.Impairments{
				Amplitude:    channel.AmplitudeForSNR(snrs[i]),
				CFOHz:        cfos[i],
				SampleRate:   cfg.Chirp.SampleRate(),
				InitialPhase: float64(i),
			}),
		})
	}
	return rx.SourceFromRenderer(channel.NewRenderer(ems, cfg.Chirp.OSR, noiseSeed))
}

func TestBoundariesInGeometry(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	q := &rx.Packet{Start: 1000, NSymbols: 4}
	pre := int64(cfg.PreambleSampleCount())

	// Window aligned inside q's preamble, shifted by 300 samples: exactly
	// one preamble boundary inside the window.
	bs := BoundariesIn(cfg, q, 1000+2*m-300)
	if len(bs) != 1 || bs[0] != 300 {
		t.Errorf("preamble window boundaries = %v, want [300]", bs)
	}

	// Window overlapping the preamble/data junction: the junction sits at
	// q.Start+pre; pre mod m = m/4 (the 0.25 down-chirp), so a window
	// starting at the last down-chirp grid point sees the junction at m/4.
	winStart := q.Start + pre - m/4
	bs = BoundariesIn(cfg, q, winStart)
	found := false
	for _, b := range bs {
		if b == int(m/4) {
			found = true
		}
	}
	if !found {
		t.Errorf("junction boundary missing: %v", bs)
	}

	// Window inside q's data region, offset 100 into symbol 1.
	bs = BoundariesIn(cfg, q, q.Start+pre+m+100)
	if len(bs) != 1 || bs[0] != int(m-100) {
		t.Errorf("data window boundaries = %v, want [%d]", bs, m-100)
	}

	// Window entirely after q ends: nothing.
	bs = BoundariesIn(cfg, q, q.End(cfg)+10)
	if len(bs) != 0 {
		t.Errorf("post-packet boundaries = %v", bs)
	}

	// Window perfectly aligned with q's data grid: boundary at the window
	// edge is NOT inside the window.
	bs = BoundariesIn(cfg, q, q.Start+pre+m)
	if len(bs) != 0 {
		t.Errorf("aligned window boundaries = %v, want none", bs)
	}
}

func TestCollectBoundariesMergesAndCaps(t *testing.T) {
	cfg := testCfg()
	dm, err := NewDemodulator(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	pre := int64(cfg.PreambleSampleCount())
	// Two interferers with data-grid boundaries 1 sample apart: merged.
	q1 := &rx.Packet{Start: 0, NSymbols: 100}
	q2 := &rx.Packet{Start: 1, NSymbols: 100}
	win := pre + 20*m + 400 // inside both data regions
	bs := dm.CollectBoundaries(win, []*rx.Packet{q1, q2})
	if len(bs) != 1 {
		t.Errorf("boundaries %v, want 1 after merge", bs)
	}
}

// Collision and FixtureConfig expose the fixture builders to the external
// receive tests, which decode through the public cic.Receiver (the package
// cic imports core, so those tests live in core_test).
var (
	Collision     = collision
	FixtureConfig = testCfg
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.SEDWindows != 10 || o.Metrics == nil {
		t.Errorf("defaults wrong: %+v", o)
	}
}
