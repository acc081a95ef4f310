package rx

import "testing"

// denseAnchors returns the fixture's down-chirp anchors: the first
// down-chirp of every packet a whole-span scan detects.
func denseAnchors(t *testing.T) (*Detector, *MemorySource, []int64) {
	t.Helper()
	cfg, src := denseCollisionSource(t)
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	var anchors []int64
	for _, p := range det.ScanDownchirp(src) {
		anchors = append(anchors, p.Start+dcRegionOffset*m)
	}
	return det, src, anchors
}

// TestSynchronizeAllocs: once the memo's storage exists, synchronizing
// the same anchors again allocates only each accepted *Packet.
func TestSynchronizeAllocs(t *testing.T) {
	det, src, anchors := denseAnchors(t)
	accepted := 0
	for _, a := range anchors {
		if _, ok := det.Synchronize(src, a); ok {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("fixture: no anchor synchronized")
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, a := range anchors {
			det.Synchronize(src, a)
		}
	})
	if allocs != float64(accepted) {
		t.Errorf("re-synchronizing %d anchors: %v allocs, want %d (one per accepted packet)", len(anchors), allocs, accepted)
	}
}

// TestMemoEviction: one resolveCandidates call over every anchor of a
// dense collision transforms more distinct windows than the memo holds,
// and still finds exactly what a fresh Detector finds per anchor.
func TestMemoEviction(t *testing.T) {
	det, src, anchors := denseAnchors(t)
	_, end := src.Span()
	det.anchors = append(det.anchors[:0], anchors...)
	got := det.resolveCandidates(src, end, nil)
	if det.memoFills <= memoCap {
		t.Fatalf("fixture: %d windows transformed, want more than the memo's %d", det.memoFills, memoCap)
	}

	var want []Packet
	for _, a := range anchors {
		fresh, err := NewDetector(det.cfg, DetectorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := fresh.Synchronize(src, a); ok {
			want = append(want, *p)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("one call found %d packets, fresh detectors %d", len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		w.ID = p.ID
		if *p != w {
			t.Errorf("packet %d: one call %+v, fresh detector %+v", i, *p, w)
		}
	}
}

// scaledSource is src with every sample multiplied by k.
type scaledSource struct {
	src SampleSource
	k   complex128
}

func (s scaledSource) Read(dst []complex128, start int64) {
	s.src.Read(dst, start)
	for i := range dst {
		dst[i] *= s.k
	}
}

func (s scaledSource) Span() (int64, int64) { return s.src.Span() }

// TestMemoResetPerCall: no memo entry outlives the call that made it. A
// Detector that has just synchronized one source synchronizes a second
// source, with the same windows at twice the amplitude, exactly as a
// fresh Detector does, and a range scan with no windows leaves the memo
// empty.
func TestMemoResetPerCall(t *testing.T) {
	cfg := testCfg()
	m := int64(cfg.Chirp.SamplesPerSymbol())
	a, start := buildAir(t, cfg, []byte("reset per call"), 8000, 25, 1300, false, 13)
	b := scaledSource{a, 2}
	anchor := start + dcRegionOffset*m
	det, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewDetector(cfg, DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := det.Synchronize(a, anchor); !ok {
		t.Fatal("fixture: synchronize failed")
	}
	got, ok1 := det.Synchronize(b, anchor)
	want, ok2 := fresh.Synchronize(b, anchor)
	if !ok1 || !ok2 {
		t.Fatalf("synchronize on the second source: reused detector %v, fresh detector %v", ok1, ok2)
	}
	if *got != *want {
		t.Errorf("reused detector synchronized %+v, fresh detector %+v", *got, *want)
	}
	_, end := a.Span()
	det.ScanDownchirpRange(a, end, end, nil)
	if det.memoFills != 0 {
		t.Errorf("%d memo entries outlived their call", det.memoFills)
	}
}
