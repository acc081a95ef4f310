package cic_test

import (
	"bytes"
	"testing"

	"cic"
)

// collectPackets drains the gateway's channel in the background.
func collectPackets(gw *cic.Gateway) <-chan []cic.Packet {
	done := make(chan []cic.Packet, 1)
	go func() {
		var all []cic.Packet
		for p := range gw.Packets() {
			all = append(all, p)
		}
		done <- all
	}()
	return done
}

func TestGatewayStreamsSinglePacket(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("streaming hello")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: 4096, SNR: 25, CFO: 1200},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	// Pad with noise-free tail so the air moves past the packet end.
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)

	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	// Feed in SDR-sized chunks.
	chunk := 4096
	for off := 0; off < len(iq); off += chunk {
		end := off + chunk
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	all := <-done
	if len(all) != 1 || !all[0].OK || !bytes.Equal(all[0].Payload, payload) {
		t.Fatalf("gateway stream: %+v", all)
	}
}

func TestGatewayStreamsCollision(t *testing.T) {
	cfg := cic.DefaultConfig()
	cfg.CodingRate = 3 // tolerate a marginal ±1-bin slip
	sym := int64(cfg.SamplesPerSymbol())
	p1 := []byte("stream collision A")
	p2 := []byte("stream collision B")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: p1, StartSample: 4096, SNR: 26, CFO: 1700},
		{Payload: p2, StartSample: 4096 + 19*sym + 113, SNR: 23, CFO: -2600},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src)
	iq = append(iq, make([]complex128, 8*cfg.SamplesPerSymbol())...)

	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	for off := 0; off < len(iq); off += 10000 {
		end := off + 10000
		if end > len(iq) {
			end = len(iq)
		}
		if _, err := gw.Write(iq[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	all := <-done
	got := map[string]bool{}
	for _, p := range all {
		if p.OK {
			got[string(p.Payload)] = true
		}
	}
	if !got[string(p1)] || !got[string(p2)] {
		t.Fatalf("gateway missed collided packets: %+v", all)
	}
}

func TestGatewayFlushOnClose(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("flush me")
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: 2048, SNR: 25},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	iq := cic.Samples(src) // no tail: only Close's flush can decode it

	gw, _ := cic.NewGateway(cfg)
	done := collectPackets(gw)
	if _, err := gw.Write(iq); err != nil {
		t.Fatal(err)
	}
	gw.Close()
	all := <-done
	if len(all) != 1 || !all[0].OK {
		t.Fatalf("flush did not deliver the packet: %+v", all)
	}
}

func TestGatewayWriteAfterClose(t *testing.T) {
	gw, err := cic.NewGateway(cic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gw.Close()
	if _, err := gw.Write(make([]complex128, 10)); err == nil {
		t.Error("Write after Close succeeded")
	}
	if err := gw.Close(); err != nil {
		t.Error("double Close errored")
	}
}

// TestGatewayAcceptsEveryAlgorithm: the gateway is the only decoder, so it
// runs every algorithm and rejects only unknown ones.
func TestGatewayAcceptsEveryAlgorithm(t *testing.T) {
	for _, algo := range cic.Algorithms() {
		gw, err := cic.NewGateway(cic.DefaultConfig(), cic.WithAlgorithm(algo))
		if err != nil {
			t.Errorf("%s gateway rejected: %v", algo, err)
			continue
		}
		gw.Close()
	}
	if _, err := cic.NewGateway(cic.DefaultConfig(), cic.WithAlgorithm("nope")); err == nil {
		t.Error("gateway accepted an unknown algorithm")
	}
}

func TestGatewayBoundedMemory(t *testing.T) {
	cfg := cic.DefaultConfig()
	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	go func() {
		for range gw.Packets() {
		}
	}()
	// Stream two seconds of pure silence: buffered samples must stay
	// bounded by the ring size regardless of input volume.
	chunk := make([]complex128, 1<<15)
	total := int64(0)
	for total < int64(2*cfg.SampleRate()) {
		if _, err := gw.Write(chunk); err != nil {
			t.Fatal(err)
		}
		total += int64(len(chunk))
	}
	maxPkt, _ := cfg.PacketSamples(255)
	if got := gw.BufferedSamples(); got > int64(3*maxPkt) {
		t.Errorf("gateway buffered %d samples, ring bound %d", got, 3*maxPkt)
	}
}

// TestGatewayRingWrap: packets arriving long after the stream start (well
// past the ring capacity) must still decode — the ring base/head arithmetic
// has to stay consistent across many wraps.
func TestGatewayRingWrap(t *testing.T) {
	cfg := cic.DefaultConfig()
	payload := []byte("after the wrap")
	maxPkt, _ := cfg.PacketSamples(255)
	late := int64(7*maxPkt + 12345) // several ring lengths into the stream
	src, err := cic.SimulateCollision(cfg, []cic.Emission{
		{Payload: payload, StartSample: late, SNR: 25, CFO: -1600},
	}, 8)
	if err != nil {
		t.Fatal(err)
	}
	_, end := src.Span()
	gw, err := cic.NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := collectPackets(gw)
	buf := make([]complex128, 8192)
	for pos := int64(0); pos < end+int64(4*cfg.SamplesPerSymbol()); pos += int64(len(buf)) {
		src.Read(buf, pos)
		if _, err := gw.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	all := <-done
	found := false
	for _, p := range all {
		if p.OK && bytes.Equal(p.Payload, payload) {
			if d := p.Start - late; d > 2 || d < -2 {
				t.Errorf("start %d, want %d", p.Start, late)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("packet past the ring wrap not decoded: %+v", all)
	}
}
