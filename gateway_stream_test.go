package cic_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cic"
	"cic/internal/eval"
	"cic/internal/sim"
)

// streamTrace builds a three-packet collision trace plus a quiet tail long
// enough for the gateway to pass every packet's end.
func streamTrace(t testing.TB, cfg cic.Config) ([]complex128, [][]byte) {
	t.Helper()
	sym := int64(cfg.SamplesPerSymbol())
	payloads := [][]byte{
		[]byte("parity packet alpha"),
		[]byte("parity packet bravo"),
		[]byte("parity packet charl"),
	}
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payloads[0], StartSample: 4096, SNR: 27, CFO: 1500},
		{Payload: payloads[1], StartSample: 4096 + 13*sym + 211, SNR: 24, CFO: -2400},
		{Payload: payloads[2], StartSample: 4096 + 26*sym + 97, SNR: 25, CFO: 800},
	}, 41)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)
	return iq, payloads
}

// streamThrough pushes iq through a gateway in rng-sized chunks and
// returns everything delivered on Packets().
func streamThrough(t testing.TB, cfg cic.Config, iq []complex128, rng *rand.Rand, options ...cic.Option) []cic.Packet {
	t.Helper()
	gw, err := cic.NewGateway(cfg, options...)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); {
		end := off + 1 + rng.Intn(3*cfg.SamplesPerSymbol())
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// simTrace renders samples [from, to) of a cic-gen traffic capture
// (deployment, rate pkts/s, seconds, seed; 28-byte payloads), rounded to
// the capture's float32 precision.
func simTrace(t testing.TB, dep sim.Deployment, rate, seconds float64, seed, from, to int64) []complex128 {
	t.Helper()
	nw, err := sim.NewNetwork(eval.DefaultConfig().Frame, dep, seed)
	if err != nil {
		t.Fatal(err)
	}
	run, err := nw.BuildRun(rate, seconds, 28, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, end := run.Source.Span(); to > end {
		to = end
	}
	iq := make([]complex128, to-from)
	run.Source.Read(iq, from)
	for i, v := range iq {
		iq[i] = complex128(complex64(v))
	}
	return iq
}

// decodeInChunks writes iq into a fresh gateway chunk samples at a time
// (chunk <= 0: one Write) and returns everything it delivers.
func decodeInChunks(t testing.TB, iq []complex128, chunk int, options ...cic.Option) []cic.Packet {
	t.Helper()
	gw, err := cic.NewGateway(cic.DefaultConfig(), options...)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	if chunk <= 0 {
		chunk = len(iq)
	}
	for off := 0; off < len(iq); off += chunk {
		if _, err := gw.Write(iq[off:min(off+chunk, len(iq))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	return <-done
}

// TestGatewayChunkIdentity: a whole-buffer Write, 65536-sample chunks and
// 1000-sample chunks decode to identical records. The CIC trace is the
// tail of cic-gen D3 (rate 60, 4 s, seed 1) where detection used to depend
// on the chunking (a lossy within-call duplicate skip found one packet
// fewer in large chunks); CIC runs it at 1 and 2 workers. The LoRa and
// FTrack baselines, whose up-chirp scan carries its run history across
// Writes, run a D1 second at 2 workers.
func TestGatewayChunkIdentity(t *testing.T) {
	d3 := simTrace(t, sim.D3, 60, 4, 1, 3930000, 4061696)
	d1 := simTrace(t, sim.D1, 40, 0.5, 3, 0, 500000)
	for _, tc := range []struct {
		algo    cic.Algorithm
		workers int
		iq      []complex128
	}{
		{cic.AlgorithmCIC, 1, d3}, {cic.AlgorithmCIC, 2, d3},
		{cic.AlgorithmLoRa, 2, d1}, {cic.AlgorithmFTrack, 2, d1},
	} {
		opts := []cic.Option{cic.WithAlgorithm(tc.algo), cic.WithWorkers(tc.workers)}
		want := decodeInChunks(t, tc.iq, 0, opts...)
		if len(want) < 4 {
			t.Fatalf("%s: only %d records", tc.algo, len(want))
		}
		for i := 1; i < len(want); i++ {
			if want[i].Start < want[i-1].Start {
				t.Errorf("%s: records out of start order at %d", tc.algo, i)
			}
		}
		for _, chunk := range []int{65536, 1000} {
			if got := decodeInChunks(t, tc.iq, chunk, opts...); !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d chunk=%d: %d records differ from the whole-buffer Write's %d:\n%+v\nwant\n%+v",
					tc.algo, tc.workers, chunk, len(got), len(want), got, want)
			}
		}
		t.Logf("%s workers=%d: %d records", tc.algo, tc.workers, len(want))
	}
}

// TestGatewayLargeWriteMatchesChunks: one Write longer than the ring
// decodes exactly as 65536-sample chunks do. The Write is taken in
// ring-safe pieces, so no pending packet's samples are evicted before it
// is decoded.
func TestGatewayLargeWriteMatchesChunks(t *testing.T) {
	iq := simTrace(t, sim.D1, 15, 1.4, 2, 0, 1400000)
	gw, err := cic.NewGateway(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	if ring := 3 * gw.MaxPacketSamples(); int64(len(iq)) <= ring {
		t.Fatalf("trace of %d samples fits the %d-sample ring", len(iq), ring)
	}
	want := decodeInChunks(t, iq, 65536, cic.WithWorkers(2))
	ok := 0
	for _, p := range want {
		if p.OK {
			ok++
		}
	}
	if ok < 10 {
		t.Fatalf("only %d of %d records decoded", ok, len(want))
	}
	if got := decodeInChunks(t, iq, 0, cic.WithWorkers(2)); !reflect.DeepEqual(got, want) {
		t.Errorf("one Write: %+v\nwant %+v", got, want)
	}
}

// TestGatewayWorkerParity: a multi-worker gateway must deliver output
// byte-identical (order, payloads, metadata) to the single-worker serial
// path — the reorder buffer restores dispatch order exactly.
func TestGatewayWorkerParity(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3
	iq, _ := streamTrace(t, cfg)

	serial := streamThrough(t, cfg, iq, rand.New(rand.NewSource(11)), cic.WithWorkers(1))
	if len(serial) == 0 {
		t.Fatal("serial gateway delivered nothing")
	}
	for _, workers := range []int{2, 4} {
		par := streamThrough(t, cfg, iq, rand.New(rand.NewSource(11)), cic.WithWorkers(workers))
		if len(par) != len(serial) {
			t.Fatalf("workers=%d delivered %d packets, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			a, b := serial[i], par[i]
			if a.Start != b.Start || a.OK != b.OK || !bytes.Equal(a.Payload, b.Payload) ||
				a.SNR != b.SNR || a.CFO != b.CFO || a.FECCorrected != b.FECCorrected {
				t.Errorf("workers=%d: packet %d differs: serial %+v parallel %+v", workers, i, a, b)
			}
		}
	}
}

// TestGatewayConcurrentWriteClose is the -race regression for the
// Gateway.closed data race: Write, Close, BufferedSamples and Packets
// consumption all run concurrently, and Close returns only after the
// stage goroutine has exited.
func TestGatewayConcurrentWriteClose(t *testing.T) {
	cfg := cic.DefaultConfig()
	gw, err := cic.NewGateway(cfg, cic.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)

	var wg sync.WaitGroup
	wrote := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		chunk := make([]complex128, 4096)
		var once sync.Once
		for {
			if _, err := gw.Write(chunk); err != nil {
				if !errors.Is(err, cic.ErrGatewayClosed) {
					t.Errorf("Write: %v", err)
				}
				return
			}
			once.Do(func() { close(wrote) })
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if gw.BufferedSamples() < 0 {
				t.Error("negative buffered sample count")
				return
			}
		}
	}()
	<-wrote
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if !cic.PipelineExited(gw) {
		t.Error("stage or reorder goroutine still running after Close")
	}
	if err := gw.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	wg.Wait()
	<-done
}

// TestGatewayWithWorkersPlumbed: NewGateway must honour WithWorkers rather
// than silently ignoring it.
func TestGatewayWithWorkersPlumbed(t *testing.T) {
	gw, err := cic.NewGateway(cic.DefaultConfig(), cic.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	go func() {
		for range gw.Packets() {
		}
	}()
	if got := gw.Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}
