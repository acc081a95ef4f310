// Package baseline_test exercises the three prior-work receivers — the
// baseline pickers run by cic.Gateway — against the same synthetic airs
// used for CIC, checking both their success cases (clean packets) and the
// comparative failure behaviours the paper reports.
package baseline_test

import (
	"bytes"
	"math/rand"
	"testing"

	"cic"
	"cic/internal/baseline/stdlora"
	"cic/internal/channel"
	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/sim"
)

func testCfg() frame.Config {
	return frame.Config{
		Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4},
		PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
		SyncWord: 0x34,
	}
}

func air(t *testing.T, cfg frame.Config, offsets []int64, snrs, cfos []float64, payloads [][]byte, seed int64) rx.SampleSource {
	t.Helper()
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
				Amplitude:  channel.AmplitudeForSNR(snrs[i]),
				CFOHz:      cfos[i],
				SampleRate: cfg.Chirp.SampleRate(),
			}),
		})
	}
	return rx.SourceFromRenderer(channel.NewRenderer(ems, cfg.Chirp.OSR, seed))
}

// receiver decodes with one algorithm through the public cic.Receiver,
// at testCfg's geometry (cic.DefaultConfig).
type receiver struct{ r *cic.Receiver }

func newReceiver(t *testing.T, algo cic.Algorithm) receiver {
	t.Helper()
	r, err := cic.NewReceiver(cic.DefaultConfig(), cic.WithAlgorithm(algo), cic.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	return receiver{r}
}

func (r receiver) Name() string { return string(r.r.Algorithm()) }

func (r receiver) Receive(src rx.SampleSource) ([]cic.Packet, error) {
	return r.r.DecodeSource(src)
}

func receivers(t *testing.T) []receiver {
	return []receiver{
		newReceiver(t, cic.AlgorithmLoRa),
		newReceiver(t, cic.AlgorithmChoir),
		newReceiver(t, cic.AlgorithmFTrack),
	}
}

func TestNames(t *testing.T) {
	for _, r := range receivers(t) {
		if r.Name() == "" {
			t.Error("empty receiver name")
		}
	}
}

// TestAllReceiversDecodeCleanPacket: with a single clean packet, every
// baseline must succeed.
func TestAllReceiversDecodeCleanPacket(t *testing.T) {
	cfg := testCfg()
	payload := []byte("a clean, collision-free packet")
	src := air(t, cfg, []int64{0}, []float64{25}, []float64{1800}, [][]byte{payload}, 1)
	for _, r := range receivers(t) {
		results, err := r.Receive(src)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if len(results) != 1 || !results[0].OK || !bytes.Equal(results[0].Payload, payload) {
			t.Errorf("%s failed on a clean packet (%d results)", r.Name(), len(results))
		}
	}
}

// TestCaptureFilter: the stdlora lock keeps non-overlapping packets, drops
// weaker overlapping ones, and lets a much stronger packet capture.
func TestCaptureFilter(t *testing.T) {
	cfg := testCfg()
	mkPkt := func(start int64, amp float64) *rx.Packet {
		return &rx.Packet{Start: start, PeakAmp: amp, NSymbols: 10}
	}
	span := int64(cfg.PreambleSampleCount() + 10*cfg.Chirp.SamplesPerSymbol())

	// Non-overlapping: both kept.
	got := stdlora.CaptureFilter(cfg, []*rx.Packet{mkPkt(0, 1), mkPkt(span+10, 1)})
	if len(got) != 2 {
		t.Errorf("non-overlapping: kept %d, want 2", len(got))
	}
	// Overlapping, second weaker: dropped.
	got = stdlora.CaptureFilter(cfg, []*rx.Packet{mkPkt(0, 1), mkPkt(span/2, 1)})
	if len(got) != 1 || got[0].Start != 0 {
		t.Errorf("weak overlap: %v", got)
	}
	// Overlapping, second 12 dB stronger: captures.
	got = stdlora.CaptureFilter(cfg, []*rx.Packet{mkPkt(0, 1), mkPkt(span/2, 4)})
	if len(got) != 1 || got[0].Start != span/2 {
		t.Errorf("capture: %v", got)
	}
}

// TestCollisionComparison: on a two-packet collision, CIC must decode at
// least as many packets as every baseline, and standard LoRa must lose at
// least one packet (its single demodulator cannot decode both).
func TestCollisionComparison(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	p1 := []byte("colliding payload number1")
	p2 := []byte("colliding payload number2")
	build := func() rx.SampleSource {
		return air(t, cfg,
			[]int64{0, 17*m + 431},
			[]float64{25, 23},
			[]float64{2100, -3300},
			[][]byte{p1, p2}, 3)
	}
	okCount := func(results []cic.Packet) int {
		n := 0
		for _, res := range results {
			if res.OK && (bytes.Equal(res.Payload, p1) || bytes.Equal(res.Payload, p2)) {
				n++
			}
		}
		return n
	}

	cicResults, err := newReceiver(t, cic.AlgorithmCIC).Receive(build())
	if err != nil {
		t.Fatal(err)
	}
	cicOK := okCount(cicResults)
	if cicOK != 2 {
		t.Errorf("CIC decoded %d of 2", cicOK)
	}

	for _, r := range receivers(t) {
		results, err := r.Receive(build())
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		n := okCount(results)
		if n > cicOK {
			t.Errorf("%s decoded %d > CIC's %d", r.Name(), n, cicOK)
		}
		if r.Name() == string(cic.AlgorithmLoRa) && n > 1 {
			t.Errorf("standard LoRa decoded %d packets of an overlapping pair", n)
		}
	}
}

// TestFTrackLowSNRDegrades: FTrack's hard track threshold makes it lose
// symbols at low SNR where CIC still decodes (the D3/D4 regime).
func TestFTrackLowSNRDegrades(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	rng := rand.New(rand.NewSource(9))
	p1 := make([]byte, 20)
	p2 := make([]byte, 20)
	rng.Read(p1)
	rng.Read(p2)

	run := func(snr float64, seed int64) (ftOK, cicOK int) {
		build := func() rx.SampleSource {
			return air(t, cfg,
				[]int64{0, 13*m + 277},
				[]float64{snr, snr - 2},
				[]float64{1500, -2500},
				[][]byte{p1, p2}, seed)
		}
		ftRes, err := newReceiver(t, cic.AlgorithmFTrack).Receive(build())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range ftRes {
			if res.OK {
				ftOK++
			}
		}
		cicRes, err := newReceiver(t, cic.AlgorithmCIC).Receive(build())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range cicRes {
			if res.OK {
				cicOK++
			}
		}
		return
	}

	// Aggregate over several noise realisations: the comparison is
	// statistical (single instances can swing either way near threshold).
	var ftTotal, cicTotal int
	for seed := int64(1); seed <= 5; seed++ {
		ft, cic := run(0, seed)
		ftTotal += ft
		cicTotal += cic
	}
	// Allow a one-packet statistical wobble; the figure-level experiments
	// (Figs 30–31) carry the full low-SNR comparison.
	if ftTotal > cicTotal+1 {
		t.Errorf("at 0 dB SNR FTrack decoded %d > CIC %d over 5 runs", ftTotal, cicTotal)
	}
}

// TestCaptureLockMatchesCaptureFilter: the Gateway's streaming capture
// lock keeps exactly the packets stdlora.CaptureFilter keeps when it is
// handed the whole-span up-chirp detections with their header-derived
// lengths. Dense D1 traffic makes the lock refuse packets; a weak packet
// overtaken 15 dB louder mid-air makes it steal.
func TestCaptureLockMatchesCaptureFilter(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	nw, err := sim.NewNetwork(cfg, sim.D1, 4)
	if err != nil {
		t.Fatal(err)
	}
	run, err := nw.BuildRun(60, 2, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	kept, detected := captureLockMatches(t, run.Source)
	if kept == detected || kept < 5 {
		t.Errorf("dense D1: lock not exercised: %d kept of %d detected", kept, detected)
	}
	weak, strong := []byte("weak packet, overtaken"), []byte("strong packet, steals")
	steal := air(t, cfg, []int64{0, 30*m + 311}, []float64{8, 23}, []float64{1200, -2700}, [][]byte{weak, strong}, 5)
	if kept, detected := captureLockMatches(t, steal); kept != 1 || detected != 2 {
		t.Errorf("steal: %d kept of %d detected, want 1 of 2", kept, detected)
	}
}

// captureLockMatches compares the LoRa gateway's output starts on src
// with stdlora.CaptureFilter's and returns how many packets the filter
// kept of how many the up-chirp scan detected.
func captureLockMatches(t *testing.T, src rx.SampleSource) (kept, detected int) {
	t.Helper()
	cfg := testCfg()
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	picker, err := stdlora.NewPicker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pkts := det.ScanUpchirp(src)
	for _, p := range pkts {
		syms := make([]uint16, phy.HeaderSymbolCount)
		for s := range syms {
			syms[s] = picker.PickSymbol(src, p, s, nil)
		}
		p.NSymbols = phy.MaxSymbolCount(cfg.PHY)
		if hdr, ok := rx.HeaderFromSymbols(syms, cfg.PHY); ok {
			pcfg := cfg.PHY
			pcfg.CR, pcfg.HasCRC = hdr.CR, hdr.HasCRC
			p.NSymbols = phy.SymbolCount(pcfg, int(hdr.Length))
		}
	}
	var want []int64
	for _, p := range stdlora.CaptureFilter(cfg, pkts) {
		want = append(want, p.Start)
	}
	got, err := newReceiver(t, cic.AlgorithmLoRa).Receive(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("gateway kept %d packets, CaptureFilter %d (of %d detected)", len(got), len(want), len(pkts))
	}
	for i, p := range got {
		if p.Start != want[i] {
			t.Errorf("packet %d: gateway kept start %d, CaptureFilter %d", i, p.Start, want[i])
		}
	}
	return len(want), len(pkts)
}
