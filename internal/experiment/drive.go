package experiment

import (
	"fmt"

	"cic/internal/eval"
	"cic/internal/rx"
	"cic/internal/sim"
)

// Drive modes.
const (
	// DriveInProcess scores every receiver in this process against the
	// rendered run, each writing the whole run into a cic.Gateway.
	DriveInProcess = "inprocess"
	// DriveGatewayd streams the CIC receiver's IQ through a cic-gatewayd
	// over TCP (server.ReconnectingClient) and scores the daemon's NDJSON
	// records; baseline receivers still run in-process, since the daemon
	// only speaks CIC. Both drives decode with the same Gateway, so their
	// CIC scores agree.
	DriveGatewayd = "gatewayd"
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

// runTrialInProcess executes one trial entirely in this process.
func runTrialInProcess(cfg *Config, t Trial) (map[string]ReceiverScore, error) {
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

// readAll drains a sample source's span in bounded chunks, handing each
// chunk to emit. This is how trials stream rendered air to a gatewayd.
func readAll(src rx.SampleSource, chunk int, emit func([]complex128) error) error {
	start, end := src.Span()
	buf := make([]complex128, chunk)
	for off := start; off < end; {
		n := int64(len(buf))
		if end-off < n {
			n = end - off
		}
		src.Read(buf[:n], off)
		if err := emit(buf[:n]); err != nil {
			return err
		}
		off += n
	}
	return nil
}
