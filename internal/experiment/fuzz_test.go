package experiment

import (
	"strings"
	"testing"
)

// FuzzParseExperimentConfig asserts the strict parser's safety contract:
// it never panics on arbitrary bytes, and anything it accepts satisfies
// the schema invariants (version pinned, channel in range, kind/metric
// consistent, positive rates).
func FuzzParseExperimentConfig(f *testing.F) {
	f.Add([]byte(validConfigJSON))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"version":1,"name":"x","kind":"figure","figure":"snr","deployments":[{"base":"D1"}]}`))
	f.Add([]byte(`{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"sf":99},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`))
	f.Add([]byte(`{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"bandwidth_hz":1},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`))
	f.Add([]byte(`{"version":1,"unknown_key":true}`))
	f.Add([]byte(`{"version":1e999}`))
	f.Add([]byte(strings.Repeat(`{"a":`, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		if cfg.Version != SchemaVersion {
			t.Fatalf("accepted version %d", cfg.Version)
		}
		if cfg.Name == "" {
			t.Fatal("accepted empty name")
		}
		if cfg.Kind != KindSweep && cfg.Kind != KindFigure {
			t.Fatalf("accepted kind %q", cfg.Kind)
		}
		if sf := cfg.Channel.SF; sf != 0 && (sf < 7 || sf > 12) {
			t.Fatalf("accepted SF %d", sf)
		}
		switch bw := cfg.Channel.BandwidthHz; bw {
		case 0, 125e3, 250e3, 500e3:
		default:
			t.Fatalf("accepted bandwidth %g", bw)
		}
		if len(cfg.Deployments) == 0 {
			t.Fatal("accepted empty deployment list")
		}
		for _, r := range cfg.Rates {
			if r <= 0 {
				t.Fatalf("accepted rate %g", r)
			}
		}
		if cfg.Kind == KindSweep {
			if cfg.Metric != MetricThroughput && cfg.Metric != MetricPRR && cfg.Metric != MetricDetection {
				t.Fatalf("accepted sweep metric %q", cfg.Metric)
			}
			// A valid sweep must expand to a nonempty, panic-free matrix.
			if len(cfg.Trials()) == 0 {
				t.Fatal("valid sweep expands to zero trials")
			}
		}
		// Derived accessors must be total on accepted configs.
		_ = cfg.FrameConfig()
		_ = cfg.SHA()
		_ = cfg.ReceiverNames()
	})
}
