package core

import (
	"bytes"
	"math/rand"
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

func TestCICNoInterferersEqualsArgmax(t *testing.T) {
	cfg := testCfg()
	payload := []byte("solo packet, no interference")
	src := collision(t, cfg, []int64{0}, []float64{25}, []float64{1500}, [][]byte{payload}, 1)
	recv, err := NewReceiver(cfg, Options{}, rx.DetectorOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	results, err := recv.Receive(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].OK() {
		t.Fatalf("results: %+v", results)
	}
	if !bytes.Equal(results[0].Payload, payload) {
		t.Error("payload mismatch")
	}
}

func TestCICDecodesTwoPacketCollision(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	p1 := []byte("first colliding packet!!")
	p2 := []byte("second colliding packet!")
	// Offset: packet 2 starts mid-way through packet 1, boundaries offset
	// by 0.37 of a symbol.
	off := 20*m + 379
	src := collision(t, cfg,
		[]int64{0, off},
		[]float64{25, 22},
		[]float64{1500, -2300},
		[][]byte{p1, p2}, 2)
	recv, _ := NewReceiver(cfg, Options{}, rx.DetectorOptions{}, 2)
	results, err := recv.Receive(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d packets detected, want 2", len(results))
	}
	for i, want := range [][]byte{p1, p2} {
		if !results[i].OK() {
			t.Errorf("packet %d not decoded: headerOK=%v crcOK=%v", i, results[i].HeaderOK, results[i].CRCOK)
			continue
		}
		if !bytes.Equal(results[i].Payload, want) {
			t.Errorf("packet %d payload mismatch", i)
		}
	}
}

func TestCICDecodesSixPacketCollision(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := testCfg()
	// CR 4/8: the diagonal interleaver + Hamming(8,4) absorb the isolated
	// symbol errors that dense collisions leave behind, so this test
	// exercises the full CIC+FEC stack the way a robust deployment would.
	cfg.PHY.CR = phy.CR48
	m := int64(cfg.Chirp.SamplesPerSymbol())
	rng := rand.New(rand.NewSource(7))
	n := 6
	offsets := make([]int64, n)
	snrs := make([]float64, n)
	cfos := make([]float64, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		// Stagger starts by ~12 symbols with random sub-symbol offsets so
		// every packet overlaps several others (the Fig 12 scenario:
		// partially-overlapping collisions, not a sustained 6-way pile-up).
		offsets[i] = int64(i)*12*m + int64(rng.Intn(int(m)))
		snrs[i] = 20 + 10*rng.Float64()
		cfos[i] = channel.RandomCFO(rng, 10, 915e6)
		payloads[i] = make([]byte, 16)
		rng.Read(payloads[i])
	}
	src := collision(t, cfg, offsets, snrs, cfos, payloads, 3)
	recv, _ := NewReceiver(cfg, Options{}, rx.DetectorOptions{}, 4)
	results, err := recv.Receive(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < n-1 {
		t.Fatalf("%d packets detected, want >= %d", len(results), n-1)
	}
	decoded := 0
	for _, res := range results {
		for i := range payloads {
			if res.OK() && bytes.Equal(res.Payload, payloads[i]) {
				decoded++
				break
			}
		}
	}
	if decoded < n/2 {
		t.Errorf("only %d of %d packets decoded under 6-way collision", decoded, n)
	}
}

// TestStrawmanWorseOrEqual: on a 4-packet collision, full CIC must decode
// at least as many packets as the strawman ICSS (Fig 13 vs Fig 14).
func TestStrawmanWorseOrEqual(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	rng := rand.New(rand.NewSource(11))
	n := 4
	offsets := make([]int64, n)
	snrs := make([]float64, n)
	cfos := make([]float64, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		offsets[i] = int64(i)*7*m + int64(rng.Intn(int(m)))
		snrs[i] = 25
		cfos[i] = channel.RandomCFO(rng, 10, 915e6)
		payloads[i] = make([]byte, 20)
		rng.Read(payloads[i])
	}
	count := func(opts Options) int {
		src := collision(t, cfg, offsets, snrs, cfos, payloads, 4)
		recv, _ := NewReceiver(cfg, opts, rx.DetectorOptions{}, 4)
		results, err := recv.Receive(src)
		if err != nil {
			t.Fatal(err)
		}
		ok := 0
		for i := range results {
			if results[i].OK() {
				ok++
			}
		}
		return ok
	}
	full := count(Options{})
	straw := count(Options{Strawman: true})
	if straw > full {
		t.Errorf("strawman decoded %d > full CIC %d", straw, full)
	}
	if full < n/2 {
		t.Errorf("full CIC decoded only %d of %d", full, n)
	}
}

// TestSymbolDemodAcrossOffsets sweeps the boundary offset of a single
// interferer and requires high symbol accuracy for offsets >= 10% of the
// symbol (the Fig 38 regime where CIC cancels efficiently).
func TestSymbolDemodAcrossOffsets(t *testing.T) {
	cfg := testCfg()
	// CR 4/7: the occasional ±1-bin slip on a marginal symbol (one Gray
	// bit) is inside the FEC budget, so the test verifies the CIC pipeline
	// rather than demanding a zero-error symbol stream at CR 4/5.
	cfg.PHY.CR = phy.CR47
	m := int64(cfg.Chirp.SamplesPerSymbol())
	p1 := []byte("target packet payload 28B!!!")
	p2 := []byte("interference packet 28 B!!!!")
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		// +1 keeps interferer boundaries off the chip grid, as arbitrary
		// sampling alignment does in a real capture.
		off := 5*m + int64(frac*float64(m)) + 1
		src := collision(t, cfg,
			[]int64{0, off},
			[]float64{25, 21},
			[]float64{900, -1437},
			[][]byte{p1, p2}, 5)
		recv, _ := NewReceiver(cfg, Options{}, rx.DetectorOptions{}, 2)
		results, err := recv.Receive(src)
		if err != nil {
			t.Fatal(err)
		}
		okBoth := len(results) == 2 && results[0].OK() && results[1].OK()
		if !okBoth {
			t.Errorf("frac %.1f: collision not fully decoded (%d results)", frac, len(results))
		}
	}
}

func TestReceiverEmptyAir(t *testing.T) {
	cfg := testCfg()
	r := channel.NewRenderer(nil, cfg.Chirp.OSR, 12)
	src := &spanSource{rx.SourceFromRenderer(r), 0, 200 * int64(cfg.Chirp.SamplesPerSymbol())}
	recv, _ := NewReceiver(cfg, Options{}, rx.DetectorOptions{}, 2)
	results, err := recv.Receive(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("%d packets from pure noise", len(results))
	}
}

type spanSource struct {
	rx.SampleSource
	start, end int64
}

func (s *spanSource) Span() (int64, int64) { return s.start, s.end }

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.SEDWindows != 10 || o.CFOZoom != 16 || o.PowerToleranceDB != 3 ||
		o.CFOToleranceBins != 0.25 || o.MaxCandidates != 8 || o.MaxBoundaries != 16 ||
		o.CandidateFraction != 0.1 || o.MinSubSymbolFrac != 1.0/32 {
		t.Errorf("defaults wrong: %+v", o)
	}
}
