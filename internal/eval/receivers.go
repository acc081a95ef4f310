package eval

import (
	"fmt"

	"cic"
	"cic/internal/baseline/stdlora"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/sim"
)

// Receiver is one named receiver of the comparison: a cic.Receiver (so
// every figure comes from the Gateway the daemons run) under the name the
// figures use.
type Receiver struct {
	name string
	r    *cic.Receiver
}

// Name identifies the receiver in evaluation output.
func (r Receiver) Name() string { return r.name }

// Receive decodes every packet in src, in start order.
func (r Receiver) Receive(src rx.SampleSource) ([]sim.Decode, error) {
	pkts, err := r.r.DecodeSource(src)
	if err != nil {
		return nil, err
	}
	out := make([]sim.Decode, len(pkts))
	for i, p := range pkts {
		out[i] = sim.Decode{Start: p.Start, Payload: p.Payload, OK: p.OK}
	}
	return out, nil
}

// DefaultReceivers builds the four receivers the paper compares, in
// ReceiverNames order: CIC, FTrack, Choir and standard LoRa. reg, when
// non-nil, collects the CIC receiver's decode metrics; the baselines
// exist for comparison curves and are not instrumented.
func DefaultReceivers(cfg frame.Config, workers int, reg *obs.Registry) ([]Receiver, error) {
	names := ReceiverNames()
	out := make([]Receiver, len(names))
	for i, name := range names {
		r, err := ReceiverByName(cfg, workers, name, reg)
		if err != nil {
			return nil, fmt.Errorf("eval: %s receiver: %w", name, err)
		}
		out[i] = r
	}
	return out, nil
}

// cicVariant is a named CIC receiver configuration.
type cicVariant struct {
	name string
	opts []cic.Option
}

// cicVariants are the CIC receivers ReceiverByName builds: the full
// receiver and the feature ablations of Figs 36–37, in the figures'
// series order.
var cicVariants = []cicVariant{
	{"CIC", nil},
	{"CIC-(CFO)", []cic.Option{cic.WithoutCFOFilter()}},
	{"CIC-(Power)", []cic.Option{cic.WithoutPowerFilter()}},
	{"CIC-(Power,CFO)", []cic.Option{cic.WithoutCFOFilter(), cic.WithoutPowerFilter()}},
}

// baselines maps the comparison's baseline names to their algorithms.
var baselines = map[string]cic.Algorithm{
	"FTrack": cic.AlgorithmFTrack,
	"Choir":  cic.AlgorithmChoir,
	"LoRa":   cic.AlgorithmLoRa,
}

// receiver builds the variant's CIC receiver, recording into reg when reg
// is non-nil, reporting the variant's name.
func (v cicVariant) receiver(cfg frame.Config, workers int, reg *obs.Registry) (Receiver, error) {
	opts := append([]cic.Option{cic.WithWorkers(workers)}, v.opts...)
	if reg != nil {
		opts = append(opts, cic.WithMetrics(reg))
	}
	return newReceiver(v.name, cfg, opts...)
}

func newReceiver(name string, fc frame.Config, opts ...cic.Option) (Receiver, error) {
	r, err := cic.NewReceiver(cicConfig(fc), opts...)
	if err != nil {
		return Receiver{}, err
	}
	return Receiver{name: name, r: r}, nil
}

// cicConfig is the public form of a frame configuration.
func cicConfig(fc frame.Config) cic.Config {
	return cic.Config{
		SpreadingFactor: fc.Chirp.SF,
		Bandwidth:       fc.Chirp.Bandwidth,
		Oversampling:    fc.Chirp.OSR,
		CodingRate:      int(fc.PHY.CR),
		PayloadCRC:      fc.PHY.HasCRC,
		LowDataRate:     fc.PHY.LowDataRate,
		ImplicitHeader:  fc.PHY.ImplicitHeader,
		ImplicitLength:  fc.PHY.ImplicitLength,
		SyncWord:        fc.SyncWord,
	}
}

// ReceiverNames lists the paper's comparison set, in its comparison order.
func ReceiverNames() []string { return []string{"CIC", "FTrack", "Choir", "LoRa"} }

// ReceiverByName builds a single named receiver from the paper's
// comparison set ("CIC", "FTrack", "Choir", "LoRa") or the CIC ablation
// variants of Figs 36–37 ("CIC-(CFO)", "CIC-(Power)", "CIC-(Power,CFO)").
// The experiment harness uses this so a config can declare any subset.
// reg, when non-nil, collects a CIC receiver's decode metrics.
func ReceiverByName(cfg frame.Config, workers int, name string, reg *obs.Registry) (Receiver, error) {
	for _, v := range cicVariants {
		if v.name == name {
			return v.receiver(cfg, workers, reg)
		}
	}
	if algo, ok := baselines[name]; ok {
		return newReceiver(name, cfg, cic.WithAlgorithm(algo), cic.WithWorkers(workers))
	}
	return Receiver{}, fmt.Errorf("eval: unknown receiver %q (want one of CIC, FTrack, Choir, LoRa, or a CIC ablation variant)", name)
}

// DetectionScanner is a named preamble-detection strategy: the unit the
// detection figures (Figs 32–35) compare. Scan returns the detected
// packets for a rendered run.
type DetectionScanner struct {
	Name string
	Scan func(src rx.SampleSource) []*rx.Packet
}

// DetectionScanners builds the three detection strategies of Figs 32–35:
// CIC's down-chirp scan, FTrack's multi-peak up-chirp scan, and standard
// LoRa's locked single-packet up-chirp receive. payloadLen fixes the
// packet lengths the LoRa capture filter needs.
func DetectionScanners(cfg frame.Config, payloadLen int) ([]DetectionScanner, error) {
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		return nil, fmt.Errorf("eval: detector: %w", err)
	}
	detFT, err := rx.NewDetector(cfg, rx.DetectorOptions{UpchirpTopK: 3})
	if err != nil {
		return nil, fmt.Errorf("eval: FTrack detector: %w", err)
	}
	return []DetectionScanner{
		{Name: "CIC", Scan: det.ScanDownchirp},
		{Name: "FTrack", Scan: detFT.ScanUpchirp},
		{Name: "LoRa", Scan: func(src rx.SampleSource) []*rx.Packet {
			// The lock holds a packet for its airtime, which the
			// experiment's fixed payload length determines.
			up := det.ScanUpchirp(src)
			n := phy.SymbolCount(cfg.PHY, payloadLen)
			for _, p := range up {
				p.NSymbols = n
			}
			return stdlora.CaptureFilter(cfg, up)
		}},
	}, nil
}
