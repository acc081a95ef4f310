package eval

import (
	"fmt"

	"cic/internal/baseline/choir"
	"cic/internal/baseline/ftrack"
	"cic/internal/baseline/stdlora"
	"cic/internal/core"
	"cic/internal/frame"
	"cic/internal/obs"
	"cic/internal/phy"
	"cic/internal/rx"
)

// Receiver is the common surface every evaluated gateway implements.
type Receiver interface {
	Name() string
	Receive(src rx.SampleSource) ([]rx.Decoded, error)
}

// DefaultReceivers builds the four receivers the paper compares, in
// ReceiverNames order: CIC, FTrack, Choir and standard LoRa. m, when
// non-nil, instruments the CIC receiver's decode stages; the baselines
// exist for comparison curves and are not instrumented.
func DefaultReceivers(cfg frame.Config, workers int, m *obs.DecodeMetrics) ([]Receiver, error) {
	names := ReceiverNames()
	out := make([]Receiver, len(names))
	for i, name := range names {
		r, err := ReceiverByName(cfg, workers, name, m)
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
	opts core.Options
}

// cicVariants are the CIC receivers ReceiverByName builds: the full
// receiver and the feature ablations of Figs 36–37, in the figures'
// series order.
var cicVariants = []cicVariant{
	{"CIC", core.Options{}},
	{"CIC-(CFO)", core.Options{DisableCFOFilter: true}},
	{"CIC-(Power)", core.Options{DisablePowerFilter: true}},
	{"CIC-(Power,CFO)", core.Options{DisableCFOFilter: true, DisablePowerFilter: true}},
}

// receiver builds the variant's CIC receiver, instrumented on m when m is
// non-nil, reporting the variant's name.
func (v cicVariant) receiver(cfg frame.Config, workers int, m *obs.DecodeMetrics) (Receiver, error) {
	opts := v.opts
	opts.Metrics = m
	r, err := core.NewReceiver(cfg, opts, rx.DetectorOptions{}, workers)
	if err != nil {
		return nil, err
	}
	return namedReceiver{Receiver: r, name: v.name}, nil
}

// namedReceiver overrides the display name of a wrapped receiver.
type namedReceiver struct {
	Receiver
	name string
}

func (n namedReceiver) Name() string { return n.name }

// ReceiverNames lists the paper's comparison set, in its comparison order.
func ReceiverNames() []string { return []string{"CIC", "FTrack", "Choir", "LoRa"} }

// ReceiverByName builds a single named receiver from the paper's
// comparison set ("CIC", "FTrack", "Choir", "LoRa") or the CIC ablation
// variants of Figs 36–37 ("CIC-(CFO)", "CIC-(Power)", "CIC-(Power,CFO)").
// The experiment harness uses this so a config can declare any subset.
// m, when non-nil, instruments a CIC receiver's decode stages.
func ReceiverByName(cfg frame.Config, workers int, name string, m *obs.DecodeMetrics) (Receiver, error) {
	for _, v := range cicVariants {
		if v.name == name {
			return v.receiver(cfg, workers, m)
		}
	}
	switch name {
	case "FTrack":
		return ftrack.New(cfg, ftrack.Options{}, rx.DetectorOptions{}, workers)
	case "Choir":
		return choir.New(cfg, choir.Options{}, rx.DetectorOptions{}, workers)
	case "LoRa":
		return stdlora.New(cfg, rx.DetectorOptions{}, workers)
	default:
		return nil, fmt.Errorf("eval: unknown receiver %q (want one of CIC, FTrack, Choir, LoRa, or a CIC ablation variant)", name)
	}
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
