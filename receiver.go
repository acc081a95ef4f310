package cic

import (
	"fmt"

	"cic/internal/obs"
	"cic/internal/rx"
)

// Algorithm selects the collision-decoding strategy of a Receiver.
type Algorithm string

// The available receiver algorithms.
const (
	// AlgorithmCIC is the paper's contribution: concurrent interference
	// cancellation with down-chirp detection, spectral intersection, SED
	// and the CFO/power candidate filters.
	AlgorithmCIC Algorithm = "cic"
	// AlgorithmStrawman is CIC restricted to the two-sub-symbol strawman
	// ICSS (paper §5, Figs 9/13) — for ablation.
	AlgorithmStrawman Algorithm = "strawman"
	// AlgorithmLoRa is the standard single-packet gateway with capture.
	AlgorithmLoRa Algorithm = "lora"
	// AlgorithmChoir matches peaks to transmitters by fractional CFO
	// (Eletreby et al., SIGCOMM 2017).
	AlgorithmChoir Algorithm = "choir"
	// AlgorithmFTrack matches time–frequency tracks to transmitters
	// (Xia et al., SenSys 2019).
	AlgorithmFTrack Algorithm = "ftrack"
)

// Algorithms lists every supported algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgorithmCIC, AlgorithmStrawman, AlgorithmLoRa, AlgorithmChoir, AlgorithmFTrack}
}

// Option customises a Receiver.
type Option func(*receiverOptions)

type receiverOptions struct {
	algo    Algorithm
	workers int

	disableSED         bool
	disableCFOFilter   bool
	disablePowerFilter bool

	metrics *Metrics
	tracer  func(Event)
	flight  *obs.FlightScope

	intercept func(Packet) Packet
}

// WithAlgorithm selects the decoding algorithm (default AlgorithmCIC).
func WithAlgorithm(a Algorithm) Option {
	return func(o *receiverOptions) { o.algo = a }
}

// WithWorkers sets the decoder worker-pool size (default GOMAXPROCS).
// Packets decode independently, so throughput scales with workers.
func WithWorkers(n int) Option {
	return func(o *receiverOptions) { o.workers = n }
}

// WithoutSED disables Spectral Edge Difference candidate selection
// (ablation of paper §5.6).
func WithoutSED() Option {
	return func(o *receiverOptions) { o.disableSED = true }
}

// WithoutCFOFilter disables the fractional-CFO candidate filter (ablation
// of paper §5.7, Figs 36–37).
func WithoutCFOFilter() Option {
	return func(o *receiverOptions) { o.disableCFOFilter = true }
}

// WithoutPowerFilter disables the received-power candidate filter
// (ablation of paper §5.7, Figs 36–37).
func WithoutPowerFilter() Option {
	return func(o *receiverOptions) { o.disablePowerFilter = true }
}

// WithDecodeInterceptor installs f on the Gateway's worker output path:
// every decoded packet passes through f before the reorder stage, so a
// deployment can filter, annotate or transform packets in-pipeline. f
// runs on a worker goroutine and must be safe for concurrent calls; a
// panic inside f fails the gateway like any decode panic (Write and Close
// return ErrGatewayPanic). A Receiver's batch decodes run it too.
func WithDecodeInterceptor(f func(Packet) Packet) Option {
	return func(o *receiverOptions) { o.intercept = f }
}

// Receiver decodes LoRa packets — including collided ones — from whole
// buffers or sources. Each decode writes the source into a fresh Gateway,
// closes it and collects what it delivers, so a batch decode and a
// streaming one are the same decoder. Receivers are safe for sequential
// reuse across many buffers; one decode fans work out over the worker
// pool.
type Receiver struct {
	cfg     Config
	options []Option
	opts    receiverOptions
}

// Stats returns a snapshot of the registry attached with WithMetrics; the
// zero Stats when none is attached.
func (r *Receiver) Stats() Stats { return r.opts.metrics.Snapshot() }

// NewReceiver builds a Receiver for the configuration.
func NewReceiver(cfg Config, options ...Option) (*Receiver, error) {
	if _, err := cfg.frameConfig(); err != nil {
		return nil, err
	}
	o, err := newOptions(options)
	if err != nil {
		return nil, err
	}
	return &Receiver{cfg: cfg, options: options, opts: o}, nil
}

// newOptions applies options over the defaults and checks the algorithm.
func newOptions(options []Option) (receiverOptions, error) {
	o := receiverOptions{algo: AlgorithmCIC}
	for _, opt := range options {
		opt(&o)
	}
	if o.algo == "" {
		o.algo = AlgorithmCIC
	}
	if _, ok := algorithms[o.algo]; !ok {
		return o, fmt.Errorf("cic: unknown algorithm %q", o.algo)
	}
	return o, nil
}

// Algorithm returns the receiver's decoding algorithm.
func (r *Receiver) Algorithm() Algorithm { return r.opts.algo }

// DecodeBuffer decodes every packet found in an IQ buffer whose first
// sample has absolute index 0.
func (r *Receiver) DecodeBuffer(iq []complex128) ([]Packet, error) {
	return r.decode(func(gw *Gateway) error {
		_, err := gw.Write(iq)
		return err
	})
}

// DecodeSource decodes every packet found in a SampleSource: its samples
// from index 0 to the end of its span are written into the Gateway.
func (r *Receiver) DecodeSource(src SampleSource) ([]Packet, error) {
	return r.decode(func(gw *Gateway) error {
		_, end := src.Span()
		buf := make([]complex128, max(0, min(end, gw.step)))
		for off := int64(0); off < end; off += int64(len(buf)) {
			chunk := buf[:min(int64(len(buf)), end-off)]
			src.Read(chunk, off)
			if _, err := gw.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	})
}

// decode runs one Gateway over what write feeds it and returns every
// packet it delivers, in start order.
func (r *Receiver) decode(write func(*Gateway) error) ([]Packet, error) {
	gw, err := NewGateway(r.cfg, r.options...)
	if err != nil {
		return nil, err
	}
	done := make(chan []Packet, 1)
	go func() {
		var out []Packet
		for p := range gw.Packets() {
			out = append(out, p)
		}
		done <- out
	}()
	werr := write(gw)
	if err := gw.Close(); err != nil {
		return nil, err
	}
	out := <-done
	if werr != nil {
		return nil, werr
	}
	return out, nil
}

// MemorySamples wraps an IQ buffer (first sample at absolute index 0) as a
// SampleSource.
func MemorySamples(iq []complex128) SampleSource {
	return &rx.MemorySource{Samples: iq}
}
