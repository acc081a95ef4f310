package rx

import (
	"testing"

	"cic/internal/obs"
)

// TestDetectDuplicatesCounted: anchors on the second down-chirp of
// packets the caller already tracks pass the anchor pre-check (it looks
// at the first down-chirp only), align, and resolve to the tracked
// packets' starts. Each such align is dropped and counted in
// detect_duplicates; every anchor ends as a duplicate, a reject or a new
// packet.
func TestDetectDuplicatesCounted(t *testing.T) {
	first, src, anchors := denseAnchors(t)
	m := int64(first.cfg.Chirp.SamplesPerSymbol())
	metrics := obs.NewDecodeMetrics(obs.NewRegistry())
	det, err := NewDetector(first.cfg, DetectorOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	var tracked []*Packet
	for _, a := range anchors {
		tracked = append(tracked, &Packet{Start: a - dcRegionOffset*m})
		det.anchors = append(det.anchors, a+m)
	}
	_, end := src.Span()
	got := det.resolveCandidates(src, end, tracked)
	dup, rej := metrics.DetectDuplicates.Value(), metrics.DetectRejects.Value()
	if dup == 0 {
		t.Fatalf("no duplicate counted over %d second-down-chirp anchors (%d rejects, %d new)", len(anchors), rej, len(got))
	}
	if dup+rej+int64(len(got)) != int64(len(anchors)) {
		t.Errorf("%d duplicates + %d rejects + %d new packets, want the %d anchors", dup, rej, len(got), len(anchors))
	}
	t.Logf("%d anchors: %d duplicates, %d rejects, %d new", len(anchors), dup, rej, len(got))
}
