package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cic"
	"cic/internal/channel"
	"cic/internal/core"
	"cic/internal/phy"
	"cic/internal/rx"
)

// receive decodes src with a CIC receiver at the given coding rate; the
// fixtures share cic.DefaultConfig's SF8/250 kHz/OSR4 geometry.
func receive(t *testing.T, src rx.SampleSource, cr phy.CodingRate, opts ...cic.Option) []cic.Packet {
	t.Helper()
	cfg := cic.DefaultConfig()
	cfg.CodingRate = int(cr)
	recv, err := cic.NewReceiver(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := recv.DecodeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestCICNoInterferersEqualsArgmax(t *testing.T) {
	cfg := core.FixtureConfig()
	payload := []byte("solo packet, no interference")
	src := core.Collision(t, cfg, []int64{0}, []float64{25}, []float64{1500}, [][]byte{payload}, 1)
	results := receive(t, src, phy.CR45, cic.WithWorkers(2))
	if len(results) != 1 || !results[0].OK {
		t.Fatalf("results: %+v", results)
	}
	if !bytes.Equal(results[0].Payload, payload) {
		t.Error("payload mismatch")
	}
}

func TestCICDecodesTwoPacketCollision(t *testing.T) {
	cfg := core.FixtureConfig()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	p1 := []byte("first colliding packet!!")
	p2 := []byte("second colliding packet!")
	// Offset: packet 2 starts mid-way through packet 1, boundaries offset
	// by 0.37 of a symbol.
	off := 20*m + 379
	src := core.Collision(t, cfg,
		[]int64{0, off},
		[]float64{25, 22},
		[]float64{1500, -2300},
		[][]byte{p1, p2}, 2)
	results := receive(t, src, phy.CR45, cic.WithWorkers(2))
	if len(results) != 2 {
		t.Fatalf("%d packets detected, want 2", len(results))
	}
	for i, want := range [][]byte{p1, p2} {
		if !results[i].OK {
			t.Errorf("packet %d not decoded: %+v", i, results[i])
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
	cfg := core.FixtureConfig()
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
	src := core.Collision(t, cfg, offsets, snrs, cfos, payloads, 3)
	results := receive(t, src, phy.CR48, cic.WithWorkers(4))
	if len(results) < n-1 {
		t.Fatalf("%d packets detected, want >= %d", len(results), n-1)
	}
	decoded := 0
	for _, res := range results {
		for i := range payloads {
			if res.OK && bytes.Equal(res.Payload, payloads[i]) {
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
	cfg := core.FixtureConfig()
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
	count := func(algo cic.Algorithm) int {
		src := core.Collision(t, cfg, offsets, snrs, cfos, payloads, 4)
		ok := 0
		for _, res := range receive(t, src, phy.CR45, cic.WithAlgorithm(algo), cic.WithWorkers(4)) {
			if res.OK {
				ok++
			}
		}
		return ok
	}
	full := count(cic.AlgorithmCIC)
	straw := count(cic.AlgorithmStrawman)
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
	cfg := core.FixtureConfig()
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
		src := core.Collision(t, cfg,
			[]int64{0, off},
			[]float64{25, 21},
			[]float64{900, -1437},
			[][]byte{p1, p2}, 5)
		results := receive(t, src, phy.CR47, cic.WithWorkers(2))
		okBoth := len(results) == 2 && results[0].OK && results[1].OK
		if !okBoth {
			t.Errorf("frac %.1f: collision not fully decoded (%d results)", frac, len(results))
		}
	}
}

func TestReceiverEmptyAir(t *testing.T) {
	cfg := core.FixtureConfig()
	r := channel.NewRenderer(nil, cfg.Chirp.OSR, 12)
	src := &spanSource{rx.SourceFromRenderer(r), 0, 200 * int64(cfg.Chirp.SamplesPerSymbol())}
	if results := receive(t, src, phy.CR45, cic.WithWorkers(2)); len(results) != 0 {
		t.Errorf("%d packets from pure noise", len(results))
	}
}

type spanSource struct {
	rx.SampleSource
	start, end int64
}

func (s *spanSource) Span() (int64, int64) { return s.start, s.end }
