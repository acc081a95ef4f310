package cic

import (
	"bytes"
	"sync/atomic"
	"testing"

	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
)

// countingPicker counts the symbols it is asked for and answers with the
// standard argmax picker, or with garbage when garbage is set.
type countingPicker struct {
	inner   rx.AlternatePicker
	calls   *atomic.Int64
	garbage bool
}

func (c countingPicker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	c.calls.Add(1)
	if c.garbage {
		return uint16(symIdx*37+11) % 256
	}
	return c.inner.PickSymbol(src, pkt, symIdx, others)
}

func (c countingPicker) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) []uint16 {
	return []uint16{c.PickSymbol(src, pkt, symIdx, others)}
}

// withCountingAlgorithm registers, for the test's lifetime, an algorithm
// that detects like the baselines and picks through a countingPicker.
func withCountingAlgorithm(t *testing.T, garbage bool) (Algorithm, *atomic.Int64) {
	t.Helper()
	name := Algorithm("counting-" + t.Name())
	calls := new(atomic.Int64)
	algorithms[name] = algoSpec{upchirp: true, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
		inner, err := stdlora.NewPicker(fc)
		return countingPicker{inner: inner, calls: calls, garbage: garbage}, err
	}}
	t.Cleanup(func() { delete(algorithms, name) })
	return name, calls
}

// TestGatewayPickerPlumbing drives the gateway's per-packet decode with an
// instrumented picker: a packet's length comes from its header and no
// symbol past it is demodulated, a failed header stops demodulation after
// the header block, empty input yields nothing, and packets leave in start
// order.
func TestGatewayPickerPlumbing(t *testing.T) {
	cfg := DefaultConfig()
	fc, err := cfg.frameConfig()
	if err != nil {
		t.Fatal(err)
	}
	decode := func(algo Algorithm, workers int, iq []complex128) []Packet {
		t.Helper()
		r, err := NewReceiver(cfg, WithAlgorithm(algo), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := r.DecodeBuffer(iq)
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	air := func(ems ...Emission) []complex128 {
		src, err := SimulateCollision(cfg, ems, 3)
		if err != nil {
			t.Fatal(err)
		}
		return Samples(src)
	}

	t.Run("decodes_via_picker", func(t *testing.T) {
		algo, calls := withCountingAlgorithm(t, false)
		payload := []byte("picker plumbing")
		got := decode(algo, 2, air(Emission{Payload: payload, StartSample: 4096, SNR: 25, CFO: 700}))
		if len(got) != 1 || !got[0].OK || !bytes.Equal(got[0].Payload, payload) {
			t.Fatalf("decoded %+v", got)
		}
		if want := int64(phy.SymbolCount(fc.PHY, len(payload))); calls.Load() != want {
			t.Errorf("picker called %d times, want the header-declared %d symbols", calls.Load(), want)
		}
	})

	t.Run("header_failure", func(t *testing.T) {
		algo, calls := withCountingAlgorithm(t, true)
		got := decode(algo, 1, air(Emission{Payload: []byte("garbled"), StartSample: 4096, SNR: 25}))
		if len(got) != 1 || got[0].OK || got[0].Payload != nil {
			t.Fatalf("garbage decoded: %+v", got)
		}
		if calls.Load() != phy.HeaderSymbolCount {
			t.Errorf("picker called %d times after a header failure, want %d", calls.Load(), phy.HeaderSymbolCount)
		}
	})

	t.Run("empty_input", func(t *testing.T) {
		for _, algo := range Algorithms() {
			if got := decode(algo, 4, nil); len(got) != 0 {
				t.Errorf("%s: %d packets from no input", algo, len(got))
			}
		}
	})

	t.Run("sorts_by_start", func(t *testing.T) {
		sym := int64(cfg.SamplesPerSymbol())
		long := bytes.Repeat([]byte("long "), 12)
		got := decode(AlgorithmCIC, 3, air(
			Emission{Payload: long, StartSample: 4096, SNR: 26, CFO: 1700},
			Emission{Payload: []byte("short"), StartSample: 4096 + 24*sym + 301, SNR: 23, CFO: -2600},
			Emission{Payload: []byte("last"), StartSample: 4096 + 60*sym + 77, SNR: 24, CFO: 400},
		))
		if len(got) != 3 {
			t.Fatalf("%d packets, want 3", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].Start < got[i-1].Start {
				t.Errorf("packet %d starts at %d, before packet %d at %d", i, got[i].Start, i-1, got[i-1].Start)
			}
		}
	})
}
