package sim

import (
	"testing"

	"cic/internal/rx"
	"cic/internal/traffic"
)

// TestBuildRunDeterministic: identical seeds give byte-identical airs and
// truth; different seeds differ.
func TestBuildRunDeterministic(t *testing.T) {
	cfg := testCfg()
	nw, err := NewNetwork(cfg, D2, 3)
	if err != nil {
		t.Fatal(err)
	}
	runA, err := nw.BuildRun(20, 0.5, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	runB, err := nw.BuildRun(20, 0.5, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(runA.Truth) != len(runB.Truth) {
		t.Fatal("truth lengths differ for same seed")
	}
	bufA := make([]complex128, 4096)
	bufB := make([]complex128, 4096)
	runA.Source.Read(bufA, 10000)
	runB.Source.Read(bufB, 10000)
	for i := range bufA {
		if bufA[i] != bufB[i] {
			t.Fatal("air differs for same seed")
		}
	}
	runC, err := nw.BuildRun(20, 0.5, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	runC.Source.Read(bufB, 10000)
	same := 0
	for i := range bufA {
		if bufA[i] == bufB[i] {
			same++
		}
	}
	if same == len(bufA) {
		t.Error("different seeds produced identical air")
	}
}

// TestD4FadeApplied: the D4 network's emissions carry amplitude fade, so a
// packet's envelope varies within the packet.
func TestD4FadeApplied(t *testing.T) {
	cfg := testCfg()
	nw, err := NewNetwork(cfg, D4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Dep.FadeDepth == 0 {
		t.Fatal("D4 must carry fade depth")
	}
	if D1.FadeDepth != 0 {
		t.Error("D1 must not fade")
	}
}

// TestScoreDecodesClaimsEachTruthOnce: two detections near the same truth
// packet must not double-count.
func TestScoreDecodesClaimsEachTruthOnce(t *testing.T) {
	cfg := testCfg()
	run := &Run{Cfg: cfg}
	run.Truth = append(run.Truth, run.Truth...)
	run.Truth = run.Truth[:0]
	run.Truth = append(run.Truth, truthAt(1000, []byte{9}))
	dup := Decode{Start: 1001, OK: true, Payload: []byte{9}}
	dup2 := dup
	dup2.Start = 999
	s := ScoreDecodes(run, []Decode{dup, dup2}, 1)
	if s.Decoded != 1 {
		t.Errorf("decoded = %d, want 1 (no double counting)", s.Decoded)
	}
}

// TestScoreDetectionsClaimsEachPacketOnce: one detection cannot satisfy two
// truth packets.
func TestScoreDetectionsClaimsEachPacketOnce(t *testing.T) {
	cfg := testCfg()
	run := &Run{Cfg: cfg}
	run.Truth = append(run.Truth, truthAt(1000, []byte{1}), truthAt(1100, []byte{2}))
	pkts := []*rx.Packet{{Start: 1050}}
	s := ScoreDetections(run, pkts, 1)
	if s.Detected != 1 {
		t.Errorf("detected = %d, want 1", s.Detected)
	}
}

func truthAt(at int64, payload []byte) traffic.Transmission {
	return traffic.Transmission{StartSample: at, Payload: payload}
}
