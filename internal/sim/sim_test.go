package sim

import (
	"math"
	"testing"

	"cic"
	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/traffic"
)

func testCfg() frame.Config {
	return frame.Config{
		Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4},
		PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
		SyncWord: 0x34,
	}
}

func TestDeploymentLookup(t *testing.T) {
	for _, name := range []string{"D1", "D2", "D3", "D4"} {
		d, err := DeploymentByName(name)
		if err != nil || d.Name != name {
			t.Errorf("lookup %s: %v", name, err)
		}
	}
	if _, err := DeploymentByName("D9"); err == nil {
		t.Error("bogus deployment accepted")
	}
	if len(Deployments()) != 4 {
		t.Error("want 4 deployments")
	}
}

func TestNetworkNodeParameters(t *testing.T) {
	for _, dep := range Deployments() {
		nw, err := NewNetwork(testCfg(), dep, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.Nodes) != dep.Nodes {
			t.Fatalf("%s: %d nodes", dep.Name, len(nw.Nodes))
		}
		for _, n := range nw.Nodes {
			if n.SNRdB < dep.SNRMinDB || n.SNRdB > dep.SNRMaxDB {
				t.Errorf("%s node %d SNR %g outside [%g,%g]", dep.Name, n.ID, n.SNRdB, dep.SNRMinDB, dep.SNRMaxDB)
			}
			if math.Abs(n.CFOHz) > CrystalPPM*1e-6*CarrierHz {
				t.Errorf("%s node %d CFO %g out of tolerance", dep.Name, n.ID, n.CFOHz)
			}
			if r := math.Hypot(n.X, n.Y); r > dep.AreaMeters/2+1e-9 {
				t.Errorf("%s node %d outside area", dep.Name, n.ID)
			}
		}
	}
}

func TestNetworkDeterministic(t *testing.T) {
	a, _ := NewNetwork(testCfg(), D3, 42)
	b, _ := NewNetwork(testCfg(), D3, 42)
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("same seed produced different networks")
		}
	}
	c, _ := NewNetwork(testCfg(), D3, 43)
	same := 0
	for i := range a.Nodes {
		if a.Nodes[i].SNRdB == c.Nodes[i].SNRdB {
			same++
		}
	}
	if same == len(a.Nodes) {
		t.Error("different seeds produced identical networks")
	}
}

func TestBuildRunGeometry(t *testing.T) {
	nw, _ := NewNetwork(testCfg(), D1, 2)
	run, err := nw.BuildRun(20, 1.0, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Truth) == 0 {
		t.Fatal("no traffic generated")
	}
	start, end := run.Source.Span()
	if start != 0 || end <= int64(testCfg().Chirp.SampleRate()) {
		t.Errorf("span [%d,%d)", start, end)
	}
	// All truth packets inside the duration.
	for _, tx := range run.Truth {
		if tx.StartSample < 0 || tx.StartSample > int64(1.0*testCfg().Chirp.SampleRate()) {
			t.Errorf("tx at %d outside run", tx.StartSample)
		}
	}
}

// TestEndToEndD1LightLoad: at light load in the easiest deployment, CIC
// should decode nearly every packet.
func TestEndToEndD1LightLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := testCfg()
	nw, _ := NewNetwork(cfg, D1, 5)
	run, err := nw.BuildRun(5, 2.0, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := cic.NewReceiver(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := recv.DecodeSource(run.Source)
	if err != nil {
		t.Fatal(err)
	}
	var results []Decode
	for _, p := range pkts {
		results = append(results, Decode{Start: p.Start, Payload: p.Payload, OK: p.OK})
	}
	score := ScoreDecodes(run, results, 2.0)
	if score.Offered < 5 {
		t.Fatalf("only %d packets offered", score.Offered)
	}
	if score.Decoded < score.Offered*7/10 {
		t.Errorf("decoded %d of %d at light load", score.Decoded, score.Offered)
	}
	if score.False > 0 {
		t.Errorf("%d false decodes", score.False)
	}
}

func TestScoreMath(t *testing.T) {
	s := Score{Offered: 10, Detected: 8, Decoded: 5, Duration: 2}
	if s.OfferedRate() != 5 || s.Throughput() != 2.5 || s.DetectionRate() != 0.8 {
		t.Errorf("score math wrong: %+v", s)
	}
	var zero Score
	if zero.OfferedRate() != 0 || zero.Throughput() != 0 || zero.DetectionRate() != 0 {
		t.Error("zero score must not divide by zero")
	}
}

func TestScoreDetections(t *testing.T) {
	cfg := testCfg()
	run := &Run{Cfg: cfg}
	run.Truth = []traffic.Transmission{
		{StartSample: 1000, Payload: []byte{1}},
		{StartSample: 50000, Payload: []byte{2}},
	}
	pkts := []*rx.Packet{{Start: 1003}, {Start: 90000}}
	s := ScoreDetections(run, pkts, 1)
	if s.Detected != 1 || s.False != 1 || s.Offered != 2 {
		t.Errorf("%+v", s)
	}
}

func TestScoreDecodesMatching(t *testing.T) {
	cfg := testCfg()
	run := &Run{Cfg: cfg}
	run.Truth = []traffic.Transmission{{StartSample: 1000, Payload: []byte{0xAB, 0xCD}}}
	good := Decode{Start: 1001, OK: true, Payload: []byte{0xAB, 0xCD}}
	badPayload := good
	badPayload.Payload = []byte{0xFF, 0xFF}
	farAway := good
	farAway.Start = 99999

	if s := ScoreDecodes(run, []Decode{good}, 1); s.Decoded != 1 || s.Detected != 1 {
		t.Errorf("good: %+v", s)
	}
	if s := ScoreDecodes(run, []Decode{badPayload}, 1); s.Decoded != 0 || s.Detected != 1 {
		t.Errorf("bad payload: %+v", s)
	}
	if s := ScoreDecodes(run, []Decode{farAway}, 1); s.Decoded != 0 || s.False != 1 {
		t.Errorf("far away: %+v", s)
	}
}
