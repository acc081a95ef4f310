package experiment

import (
	"fmt"

	"cic/internal/eval"
	"cic/internal/sim"
)

// Figures runs a KindFigure config: the analytic single-shot figures of
// internal/eval, parameterised from the config's channel / load / seed
// fields. These are not trial matrices (no journal, no CIs) — they exist
// so every committed figure of the paper regenerates from a config file.
func Figures(cfg *Config) ([]eval.Figure, error) {
	if cfg.Kind != KindFigure {
		return nil, fmt.Errorf("experiment: Figures wants a %q config", KindFigure)
	}
	ecfg := eval.Config{
		Frame:      cfg.FrameConfig(),
		Rates:      cfg.Rates,
		Duration:   cfg.DurationS,
		PayloadLen: cfg.PayloadLen,
		Seed:       cfg.Seeds.Base,
		Workers:    cfg.Workers,
	}
	if ecfg.Duration == 0 {
		ecfg.Duration = 2.0
	}
	deps := make([]sim.Deployment, len(cfg.Deployments))
	for i, d := range cfg.Deployments {
		deps[i] = d.Deployment()
	}
	var figs []eval.Figure
	add := func(f eval.Figure, err error) error {
		if err != nil {
			return fmt.Errorf("experiment: figure %s: %w", cfg.Figure, err)
		}
		figs = append(figs, f)
		return nil
	}
	switch cfg.Figure {
	case "heisenberg":
		return figs, add(eval.Heisenberg(ecfg))
	case "cancellation":
		return figs, add(eval.Cancellation(ecfg))
	case "clutter":
		return figs, add(eval.PreambleClutter(ecfg))
	case "snr":
		return figs, add(eval.SNRDistribution(ecfg))
	case "maps":
		return figs, add(eval.DeploymentMaps(ecfg))
	case "spectra":
		return figs, add(eval.SpectraDemo(ecfg))
	case "temporal":
		return figs, add(eval.TemporalProximity(ecfg))
	case "ablation":
		for _, d := range deps {
			if err := add(eval.Ablation(ecfg, d)); err != nil {
				return nil, err
			}
		}
		return figs, nil
	case "icss":
		for _, d := range deps {
			if err := add(eval.ICSSComparison(ecfg, d)); err != nil {
				return nil, err
			}
		}
		return figs, nil
	default:
		// Validate guarantees the name; keep the error path total.
		return nil, fmt.Errorf("experiment: unknown figure %q", cfg.Figure)
	}
}
