// Gateway: run a paper-style network simulation (20 nodes, Poisson
// traffic, deployment D1) and compare the four receivers' network capacity
// at one offered load — a miniature of Fig 28.
//
//	go run ./examples/gateway
package main

import (
	"fmt"
	"log"
	"time"

	"cic/internal/eval"
	"cic/internal/obs"
	"cic/internal/sim"
)

func main() {
	cfg := eval.DefaultConfig()
	cfg.Duration = 2.0
	const rate = 40.0 // offered load, packets/second network-wide

	nw, err := sim.NewNetwork(cfg.Frame, sim.D1, 7)
	if err != nil {
		log.Fatal(err)
	}
	run, err := nw.BuildRun(rate, cfg.Duration, cfg.PayloadLen, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment %s: %d nodes, %d packets offered over %.0fs (%.0f pkts/s)\n",
		sim.D1.Name, len(nw.Nodes), len(run.Truth), cfg.Duration, rate)

	// The CIC receiver runs instrumented so the decode-stage totals can be
	// reported after the comparison.
	reg := obs.NewRegistry()
	receivers, err := eval.DefaultReceivers(cfg.Frame, 0, reg)
	if err != nil {
		log.Fatal(err)
	}
	for _, recv := range receivers {
		t0 := time.Now()
		results, err := recv.Receive(run.Source)
		if err != nil {
			log.Fatal(err)
		}
		score := sim.ScoreDecodes(run, results, cfg.Duration)
		fmt.Printf("%-8s decoded %3d/%3d packets (%5.1f pkts/s) in %v\n",
			recv.Name(), score.Decoded, score.Offered, score.Throughput(), time.Since(t0).Round(time.Millisecond))
	}

	stats := reg.Snapshot()
	fmt.Printf("CIC stats: %d preambles, %d headers, %d symbols, gates sed=%d/%d cfo=%d/%d pow=%d/%d, CRC %d/%d\n",
		stats.Counters[obs.MetricPreamblesDetected], stats.Counters[obs.MetricHeadersDecoded],
		stats.Counters[obs.MetricSymbolsDemodulated],
		stats.Counters[obs.MetricSEDAccept], stats.Counters[obs.MetricSEDReject],
		stats.Counters[obs.MetricCFOAccept], stats.Counters[obs.MetricCFOReject],
		stats.Counters[obs.MetricPowerAccept], stats.Counters[obs.MetricPowerReject],
		stats.Counters[obs.MetricCRCPass], stats.Counters[obs.MetricCRCPass]+stats.Counters[obs.MetricCRCFail])
}
