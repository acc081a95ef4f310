// Citydeployment: the paper's hardest scenario — the D4 outdoor wide-area
// deployment where packets arrive at or below the noise floor (smart
// street lighting over ~2 km², §7.1). Standard LoRa and FTrack collapse
// here; CIC keeps decoding.
//
//	go run ./examples/citydeployment
package main

import (
	"fmt"
	"log"
	"sort"

	"cic/internal/eval"
	"cic/internal/sim"
)

func main() {
	cfg := eval.DefaultConfig()
	cfg.Duration = 2.0

	nw, err := sim.NewNetwork(cfg.Frame, sim.D4, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Show what "sub-noise" means: most street lights reach the gateway
	// below 5 dB SNR, many below 0.
	snrs := make([]float64, 0, len(nw.Nodes))
	for _, n := range nw.Nodes {
		snrs = append(snrs, n.SNRdB)
	}
	sort.Float64s(snrs)
	fmt.Printf("%s: %d street lights, SNR %.1f…%.1f dB (median %.1f)\n",
		sim.D4.Label, len(nw.Nodes), snrs[0], snrs[len(snrs)-1], snrs[len(snrs)/2])

	for _, rate := range []float64{10, 40} {
		run, err := nw.BuildRun(rate, cfg.Duration, cfg.PayloadLen, 13)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\noffered %.0f pkts/s (%d packets):\n", rate, len(run.Truth))
		receivers, err := eval.DefaultReceivers(cfg.Frame, 0, nil)
		if err != nil {
			log.Fatal(err)
		}
		for _, recv := range receivers {
			results, err := recv.Receive(run.Source)
			if err != nil {
				log.Fatal(err)
			}
			score := sim.ScoreDecodes(run, results, cfg.Duration)
			fmt.Printf("  %-8s %3d/%3d decoded (detection %4.0f%%)\n",
				recv.Name(), score.Decoded, score.Offered, 100*score.DetectionRate())
		}
	}
}
