package cic

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cic/internal/sim"
)

// TestGatewayDetectionHorizon pins the invariant both dispatch stages rely
// on: a packet starting at sample t is detected before the gateway has
// been written past t+horizon, for the down-chirp scan and for the
// baselines' up-chirp scan (each has its own horizon). D1 traffic is fed
// in quarter-symbol chunks (so detection is observed at fine granularity)
// and every detect event must arrive in a Write that began short of that
// mark. If the detector ever needs longer, a stage could dispatch before
// an overlapping interferer is tracked, and this test fails. An SF12
// packet lasts about 0.9 s, so at this rate nearly every SF12 preamble is
// buried and the SF12 case checks the few that are detected.
func TestGatewayDetectionHorizon(t *testing.T) {
	for _, tc := range []struct {
		name      string
		algo      Algorithm
		sf        int
		rate      float64
		seconds   float64
		minDetect int
	}{
		{"SF7", AlgorithmCIC, 7, 100, 0.3, 15},
		{"SF8", AlgorithmCIC, 8, 100, 0.3, 15},
		{"SF12", AlgorithmCIC, 12, 100, 0.2, 1},
		{"SF8-lora", AlgorithmLoRa, 8, 40, 0.5, 5},
		{"SF8-ftrack", AlgorithmFTrack, 8, 40, 0.5, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testDetectionHorizon(t, tc.algo, tc.sf, tc.rate, tc.seconds, tc.minDetect)
		})
	}
}

func testDetectionHorizon(t *testing.T, algo Algorithm, sf int, rate, seconds float64, minDetect int) {
	cfg := DefaultConfig()
	cfg.SpreadingFactor = sf
	var written int64 // samples written before the current Write
	var detections int
	var maxLate int64
	var gw *Gateway
	gw, err := NewGateway(cfg, WithAlgorithm(algo), WithWorkers(2), WithTracer(func(ev Event) {
		if ev.Kind != EventDetect {
			return
		}
		detections++
		if d := written - ev.Start; d > maxLate {
			maxLate = d
		}
		if written >= ev.Start+gw.horizon {
			t.Errorf("SF%d: packet at %d detected after %d samples were written, horizon ends at %d",
				sf, ev.Start, written, ev.Start+gw.horizon)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sim.NewNetwork(gw.fcfg, sim.D1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := nw.BuildRun(rate, seconds, 28, 1)
	if err != nil {
		t.Fatal(err)
	}
	start, end := run.Source.Span()
	iq := make([]complex128, end-start)
	run.Source.Read(iq, start)

	done := make(chan struct{})
	go func() {
		for range gw.Packets() {
		}
		close(done)
	}()
	chunk := cfg.SamplesPerSymbol() / 4
	for off := 0; off < len(iq); off += chunk {
		written = int64(off)
		if _, err := gw.Write(iq[off:min(off+chunk, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	written = int64(len(iq))
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	if detections < minDetect {
		t.Errorf("SF%d: %d detections for %d packets, want >= %d (horizon not exercised)",
			sf, detections, len(run.Truth), minDetect)
	}
	t.Logf("SF%d: %d packets on air, %d detections within the horizon (latest %.2f of %.2f symbols)", sf, len(run.Truth), detections, float64(maxLate)/float64(cfg.SamplesPerSymbol()), float64(gw.horizon)/float64(cfg.SamplesPerSymbol()))
}

// TestGatewayEmitsBeforeMaxLengthBudget: a short packet must be delivered
// once its real end plus the horizon is on air, long before a max-length
// packet would have ended and without waiting for Close.
func TestGatewayEmitsBeforeMaxLengthBudget(t *testing.T) {
	cfg := DefaultConfig()
	payload := []byte("early bird")
	src, err := SimulateCollision(cfg, []Emission{
		{Payload: payload, StartSample: 4096, SNR: 25, CFO: 900},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(cfg, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	chunk := cfg.SamplesPerSymbol() / 4
	iq := Samples(src)
	iq = append(iq, make([]complex128, gw.horizon+int64(chunk))...)
	if int64(len(iq)) >= gw.MaxPacketSamples() {
		t.Fatalf("trace of %d samples does not end before a max-length packet (%d)", len(iq), gw.MaxPacketSamples())
	}
	for off := 0; off < len(iq); off += chunk {
		if _, err := gw.Write(iq[off:min(off+chunk, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-gw.Packets():
		if !p.OK || !bytes.Equal(p.Payload, payload) {
			t.Errorf("early packet: %+v", p)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("packet not delivered before Close")
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	for p := range gw.Packets() {
		t.Errorf("unexpected extra packet %+v", p)
	}
}

// TestGatewayMixedLengthIdentity: a short packet that starts inside a long
// one and ends first is still delivered after it (start order), and the
// output is identical whether the trace arrives in one Write (both packets
// decoded by the Close flush) or in symbol-sized chunks followed by
// enough quiet for both stages to run mid-stream, at 1 and 4 workers.
func TestGatewayMixedLengthIdentity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CodingRate = 3
	sym := cfg.SamplesPerSymbol()
	long := []byte("a long packet whose air time outlasts the short one inside it")
	short := []byte("short")
	src, err := SimulateCollision(cfg, []Emission{
		{Payload: long, StartSample: 4096, SNR: 26, CFO: 1700},
		{Payload: short, StartSample: 4096 + int64(24*sym+301), SNR: 23, CFO: -2600},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	iq := Samples(src)

	run := func(workers int, chunked bool) []Packet {
		gw, err := NewGateway(cfg, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan []Packet, 1)
		go func() {
			var all []Packet
			for p := range gw.Packets() {
				all = append(all, p)
			}
			done <- all
		}()
		if chunked {
			air := append(append([]complex128(nil), iq...), make([]complex128, gw.horizon+int64(sym))...)
			for off := 0; off < len(air); off += sym {
				if _, err := gw.Write(air[off:min(off+sym, len(air))]); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := gw.Write(iq); err != nil {
			t.Fatal(err)
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		return <-done
	}

	want := run(1, false)
	if len(want) != 2 || !want[0].OK || !want[1].OK ||
		!bytes.Equal(want[0].Payload, long) || !bytes.Equal(want[1].Payload, short) {
		t.Fatalf("one-Write decode: %+v", want)
	}
	for _, workers := range []int{1, 4} {
		for _, chunked := range []bool{false, true} {
			if got := run(workers, chunked); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d chunked=%v: %+v, want %+v", workers, chunked, got, want)
			}
		}
	}
}
