package experiment

import (
	"fmt"

	"cic/internal/eval"
	"cic/internal/sim"
)

// buildRun materialises a trial's network and rendered air.
func buildRun(cfg *Config, t Trial) (*sim.Run, error) {
	nw, err := sim.NewNetwork(cfg.FrameConfig(), t.Spec.Deployment(), t.Seed)
	if err != nil {
		return nil, err
	}
	run, err := nw.BuildRun(t.Rate, cfg.DurationS, cfg.PayloadLen, t.Seed)
	if err != nil {
		return nil, err
	}
	return run, nil
}

// scoreToResult converts a sim score to the journaled form.
func scoreToResult(s sim.Score) ReceiverScore {
	return ReceiverScore{
		Offered:       s.Offered,
		Detected:      s.Detected,
		Decoded:       s.Decoded,
		False:         s.False,
		PRR:           prr(s),
		Throughput:    s.Throughput(),
		DetectionRate: s.DetectionRate(),
	}
}

func prr(s sim.Score) float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Decoded) / float64(s.Offered)
}

// runTrial executes one trial: every receiver scores the rendered run,
// each writing the whole run into a cic.Gateway.
func runTrial(cfg *Config, t Trial) (map[string]ReceiverScore, error) {
	run, err := buildRun(cfg, t)
	if err != nil {
		return nil, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
	}
	out := map[string]ReceiverScore{}
	if cfg.Metric == MetricDetection {
		scanners, err := eval.DetectionScanners(cfg.FrameConfig(), cfg.PayloadLen)
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
		}
		for _, sc := range scanners {
			pkts := sc.Scan(run.Source)
			out[sc.Name] = scoreToResult(sim.ScoreDetections(run, pkts, cfg.DurationS))
		}
		return out, nil
	}
	for _, name := range cfg.ReceiverNames() {
		recv, err := eval.ReceiverByName(cfg.FrameConfig(), cfg.Workers, name, nil)
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %s: %w", t.Key, err)
		}
		decoded, err := recv.Receive(run.Source)
		if err != nil {
			return nil, fmt.Errorf("experiment: trial %s: receiver %s: %w", t.Key, name, err)
		}
		out[name] = scoreToResult(sim.ScoreDecodes(run, decoded, cfg.DurationS))
	}
	return out, nil
}
