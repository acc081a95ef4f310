package cic

import (
	"errors"
	"testing"

	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/rx"
)

// panickingPicker demodulates like the standard argmax picker, except
// that header demodulation (PickSymbol, which only the stage goroutine
// calls) panics for a packet starting at or after from.
type panickingPicker struct {
	rx.AlternatePicker
	from int64
}

func (p panickingPicker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	if pkt.Start >= p.from {
		panic("injected header panic")
	}
	return p.AlternatePicker.PickSymbol(src, pkt, symIdx, others)
}

// TestGatewayStagePanic: a panic in header demodulation on the stage
// goroutine fails the gateway, not the process. The packet dispatched
// before it is still delivered, every later Write and the first Close
// return ErrGatewayPanic, the stage goroutine has exited once Close
// returns, and a second Close is a no-op.
func TestGatewayStagePanic(t *testing.T) {
	cfg := DefaultConfig()
	sym := int64(cfg.SamplesPerSymbol())
	name := Algorithm("panicking-" + t.Name())
	algorithms[name] = algoSpec{upchirp: true, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
		inner, err := stdlora.NewPicker(fc)
		return panickingPicker{inner, 40 * sym}, err
	}}
	t.Cleanup(func() { delete(algorithms, name) })

	// The samples start at the first packet, so the packets start 0 and
	// 80 symbols into the stream.
	src, err := SimulateCollision(cfg, []Emission{
		{Payload: []byte("before the panic"), StartSample: 4096, SNR: 25},
		{Payload: []byte("header panics"), StartSample: 4096 + 80*sym, SNR: 25},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	iq := Samples(src)
	gw, err := NewGateway(cfg, WithAlgorithm(name), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var got []Packet
	done := make(chan struct{})
	go func() {
		for p := range gw.Packets() {
			got = append(got, p)
		}
		close(done)
	}()

	// The panic surfaces on a Write at most two pieces after the one
	// whose header stage panicked; quiet samples carry the stream past it.
	const chunk = 4096
	quiet := make([]complex128, chunk)
	var werr error
	for off := 0; werr == nil && off < len(iq)+32*chunk; off += chunk {
		p := quiet
		if off < len(iq) {
			p = iq[off:min(off+chunk, len(iq))]
		}
		_, werr = gw.Write(p)
	}
	if !errors.Is(werr, ErrGatewayPanic) {
		t.Fatalf("Write after the header panic: %v, want ErrGatewayPanic", werr)
	}
	if _, err := gw.Write(quiet); !errors.Is(err, ErrGatewayPanic) {
		t.Errorf("second Write after the panic: %v, want ErrGatewayPanic", err)
	}
	if err := gw.Close(); !errors.Is(err, ErrGatewayPanic) {
		t.Errorf("Close after the panic: %v, want ErrGatewayPanic", err)
	}
	if !StageExited(gw) {
		t.Error("stage goroutine still running after Close")
	}
	if err := gw.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	<-done
	if len(got) != 1 || !got[0].OK || string(got[0].Payload) != "before the panic" {
		t.Errorf("delivered %+v, want only the packet dispatched before the panic", got)
	}
}
