package rx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"cic/internal/channel"
	"cic/internal/frame"
)

// denseCollisionSource renders a seeded eight-packet collision, a new
// packet every four to five symbols so up to five overlap, into memory.
func denseCollisionSource(t testing.TB) (frame.Config, *MemorySource) {
	t.Helper()
	cfg := testCfg()
	mod, err := frame.NewModulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	rng := rand.New(rand.NewSource(23))
	var ems []channel.Emission
	for i := 0; i < 8; i++ {
		payload := make([]byte, 16)
		rng.Read(payload)
		wave, _, err := mod.Modulate(payload)
		if err != nil {
			t.Fatal(err)
		}
		ems = append(ems, channel.Emission{
			Start: 4096 + int64(i)*4*m + rng.Int63n(m),
			Samples: channel.Apply(wave, channel.Impairments{
				Amplitude:    channel.AmplitudeForSNR(14 + 12*rng.Float64()),
				CFOHz:        (2*rng.Float64() - 1) * 9000,
				SampleRate:   cfg.Chirp.SampleRate(),
				InitialPhase: 2 * math.Pi * rng.Float64(),
			}),
		})
	}
	r := channel.NewRenderer(ems, cfg.Chirp.OSR, 29)
	s, e := r.TotalSpan()
	samples := make([]complex128, e-s)
	r.Render(samples, s)
	return cfg, &MemorySource{Base: s, Samples: samples}
}

// prefixSource shows only the samples before end, as a stream that has
// received that far: reads past end are zero and the span stops there.
type prefixSource struct {
	src *MemorySource
	end int64
}

func (p *prefixSource) Read(dst []complex128, start int64) {
	p.src.Read(dst, start)
	if from := p.end - start; from < int64(len(dst)) {
		clear(dst[max(from, 0):])
	}
}

func (p *prefixSource) Span() (int64, int64) {
	s, _ := p.src.Span()
	return s, p.end
}

// hashDetections writes every detection's Start, Score and the float bits
// of its CFOHz, PeakAmp and SNRdB into h.
func hashDetections(h hash.Hash, pkts []*Packet) {
	var buf [8]byte
	for _, p := range pkts {
		for _, v := range []uint64{uint64(p.Start), uint64(p.Score),
			math.Float64bits(p.CFOHz), math.Float64bits(p.PeakAmp), math.Float64bits(p.SNRdB)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
}

// detectionGolden is the SHA-256 of hashDetections over the down-chirp
// detections of denseCollisionSource. It pins detection output byte for
// byte: a change to the scan, the refinement, the verification or the
// effective-CFO step that moves any detection by one float bit changes
// it. A whole-span scan and a stream of small range calls over a growing
// prefix must both reproduce it.
const detectionGolden = "fb1eeb8849e94324dc17f52cb18af3b1d145a2f7d342cc3686c60a9d82f77f23"

func TestDetectionGoldenDigest(t *testing.T) {
	cfg, src := denseCollisionSource(t)
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	whole := det.ScanDownchirp(src)
	if len(whole) < 6 {
		t.Fatalf("fixture: whole-span scan detected %d of 8 packets, want at least 6", len(whole))
	}
	h := sha256.New()
	hashDetections(h, whole)
	if got := hex.EncodeToString(h.Sum(nil)); got != detectionGolden {
		t.Errorf("whole-span scan: digest over %d detections = %s, want %s", len(whole), got, detectionGolden)
	}

	det, err = NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	s, e := src.Span()
	// Stream the samples in in small chunks, scanning, as the gateway
	// does, only the windows that are fully received, until the last
	// call flushes the rest.
	const chunk = 700
	var chunked []*Packet
	scanned := s - m
	for written := s; written < e; {
		written = min(written+chunk, e)
		scanTo := written - m
		if written == e {
			scanTo = e
		}
		if scanTo > scanned {
			chunked = append(chunked, det.ScanDownchirpRange(&prefixSource{src, written}, scanned, scanTo, chunked)...)
			scanned = scanTo
		}
	}
	h.Reset()
	hashDetections(h, chunked)
	if got := hex.EncodeToString(h.Sum(nil)); got != detectionGolden {
		t.Errorf("chunked scan: digest over %d detections = %s, want %s", len(chunked), got, detectionGolden)
	}
}
