package cic

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/rx"
)

// faultPicker demodulates like the standard argmax picker, except that
// header demodulation (PickSymbol, which only the stage goroutine calls)
// panics for a packet starting at or after header, and payload
// demodulation (PickSymbolAlternates, which only workers call) for one
// starting at or after payload.
type faultPicker struct {
	rx.AlternatePicker
	header, payload int64
}

func (p faultPicker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	if pkt.Start >= p.header {
		panic("injected header panic")
	}
	return p.AlternatePicker.PickSymbol(src, pkt, symIdx, others)
}

func (p faultPicker) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) []uint16 {
	if pkt.Start >= p.payload {
		panic("injected payload panic")
	}
	return p.AlternatePicker.PickSymbolAlternates(src, pkt, symIdx, others)
}

// TestGatewayStagePanic: a panic at any of the gateway's fault sites (the
// scan on the Write goroutine, the header stage on the stage goroutine, a
// worker's payload demodulation, a tracer callback at emit) fails the
// gateway, not the process. Each site's panic hits the second of two
// packets. A Write and the first Close return ErrGatewayPanic naming the
// site, Close stops every pipeline goroutine, the packets delivered are a
// prefix of the fault-free output, the panic is in the flight scope, and a
// second Close is a no-op.
func TestGatewayStagePanic(t *testing.T) {
	cfg := DefaultConfig()
	sym := int64(cfg.SamplesPerSymbol())
	// The samples start at the first packet, so the packets start 0 and
	// 80 symbols into the stream.
	src, err := SimulateCollision(cfg, []Emission{
		{Payload: []byte("before the panic"), StartSample: 4096, SNR: 25},
		{Payload: []byte("the panic packet"), StartSample: 4096 + 80*sym, SNR: 25},
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	iq := Samples(src)
	from := 40 * sym
	never := int64(math.MaxInt64)
	algorithm := func(name string, header, payload int64) Algorithm {
		a := Algorithm("fault-" + name)
		algorithms[a] = algoSpec{upchirp: true, picker: func(fc frame.Config, _ core.Options) (rx.AlternatePicker, error) {
			inner, err := stdlora.NewPicker(fc)
			return faultPicker{inner, header, payload}, err
		}}
		t.Cleanup(func() { delete(algorithms, a) })
		return a
	}

	healthy := WithAlgorithm(algorithm("none", never, never))
	ref, err := NewGateway(cfg, healthy, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	refGot, refDone := collect(ref)
	if err := writeUntilFault(ref, iq, 32); err != nil {
		t.Fatalf("fault-free run: Write %v", err)
	}
	if err := ref.Close(); err != nil {
		t.Fatalf("fault-free run: Close %v", err)
	}
	<-refDone
	want := *refGot
	if len(want) != 2 || !want[0].OK || !want[1].OK {
		t.Fatalf("fault-free run delivered %+v, want both packets", want)
	}

	cases := []struct {
		site      string
		opts      []Option
		scan      bool
		delivered int // packets sequenced before the fault
	}{
		{site: siteScan, opts: []Option{healthy}, scan: true, delivered: 1},
		{site: siteStage, opts: []Option{WithAlgorithm(algorithm("header", from, never))}, delivered: 1},
		{site: siteWorker, opts: []Option{WithAlgorithm(algorithm("payload", never, from))}, delivered: 1},
		// The emit panics after delivering the packet.
		{site: siteEmit, opts: []Option{healthy, WithTracer(func(ev Event) {
			if ev.Kind == EventEmit && ev.Start >= from {
				panic("injected emit panic")
			}
		})}, delivered: 2},
	}
	for _, c := range cases {
		t.Run(c.site, func(t *testing.T) {
			flight := NewFlightRecorder(64)
			reg := NewMetrics()
			opts := append(c.opts, WithWorkers(2), WithMetrics(reg), WithFlightScope(flight.Scope("cid", t.Name())))
			gw, err := NewGateway(cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if c.scan {
				PanicScanFrom(gw, from)
			}
			got, done := collect(gw)
			werr := writeUntilFault(gw, iq, -1)
			if !errors.Is(werr, ErrGatewayPanic) || !strings.Contains(werr.Error(), c.site+":") {
				t.Fatalf("Write after the %s panic: %v, want ErrGatewayPanic at %s", c.site, werr, c.site)
			}
			if _, err := gw.Write(make([]complex128, 4096)); !errors.Is(err, ErrGatewayPanic) {
				t.Errorf("second Write after the panic: %v, want ErrGatewayPanic", err)
			}
			if err := gw.Close(); !errors.Is(err, ErrGatewayPanic) {
				t.Errorf("Close after the panic: %v, want ErrGatewayPanic", err)
			}
			if !PipelineExited(gw) {
				t.Error("stage or reorder goroutine still running after Close")
			}
			if err := gw.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			<-done
			if len(*got) != c.delivered {
				t.Errorf("delivered %d packets, want the %d sequenced before the panic", len(*got), c.delivered)
			}
			for i, p := range *got {
				if i >= len(want) || p.Start != want[i].Start || string(p.Payload) != string(want[i].Payload) {
					t.Errorf("packet %d: %+v is not the fault-free run's %d-th", i, p, i)
				}
			}
			kinds := map[string]bool{}
			for _, ev := range flight.Snapshot() {
				kinds[ev.Kind] = true
			}
			if !kinds[c.site+"_panic"] {
				t.Errorf("flight events %v lack %s_panic", kinds, c.site)
			}
			wantWorker := int64(0)
			if c.site == siteWorker {
				wantWorker = 1
			}
			if n := reg.Snapshot().Counters[obs.MetricWorkerPanics]; n != wantWorker {
				t.Errorf("%s = %d, want %d", obs.MetricWorkerPanics, n, wantWorker)
			}
		})
	}
}

// collect gathers gw's packets until Close closes the channel.
func collect(gw *Gateway) (*[]Packet, <-chan struct{}) {
	got := new([]Packet)
	done := make(chan struct{})
	go func() {
		for p := range gw.Packets() {
			*got = append(*got, p)
		}
		close(done)
	}()
	return got, done
}

// writeUntilFault writes iq to gw in 4096-sample chunks, then quiet
// chunks, which carry the stream past the last packet: quiet of them, or
// with quiet < 0, one a millisecond until a Write fails (at most 10 s).
// It returns the first Write error.
func writeUntilFault(gw *Gateway, iq []complex128, quiet int) error {
	const chunk = 4096
	for off := 0; off < len(iq); off += chunk {
		if _, err := gw.Write(iq[off:min(off+chunk, len(iq))]); err != nil {
			return err
		}
	}
	silence := make([]complex128, chunk)
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i != quiet && time.Now().Before(deadline); i++ {
		if _, err := gw.Write(silence); err != nil {
			return err
		}
		if quiet < 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
