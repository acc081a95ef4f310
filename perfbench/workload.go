package main

import (
	"fmt"
	"math"
	"sort"
)

// workload is one traffic mix the benchmark drives through the daemons.
// Every workload uses cic.DefaultConfig (SF8 / 250 kHz / OSR 4 / CR 4/5,
// payload CRC) and 28-byte payloads of the D1 deployment.
type workload struct {
	name string

	stations int     // concurrent sessions, one sending goroutine each
	rate     float64 // offered D1 load per station, pkts/s of air
	frame    int     // samples per IQ frame

	// paceSps is the open-loop send rate per station in samples/s; zero
	// means a closed loop (frames go out as fast as TCP backpressure
	// allows).
	paceSps float64

	// routed puts cic-routerd in front of two cic-gatewayd backends;
	// otherwise the stations talk to one cic-gatewayd directly.
	routed bool
	// gatewayProcs and routerProcs fix GOMAXPROCS in each daemon's
	// environment.
	gatewayProcs int
	routerProcs  int

	// warm is the number of leading samples per station left out of the
	// measured window.
	warm int64
}

var workloads = []workload{
	{
		name:         "dense-replay",
		stations:     1,
		rate:         100,
		frame:        32768,
		gatewayProcs: 2,
		warm:         1 << 19,
	},
	{
		name:         "realtime",
		stations:     2,
		rate:         20,
		frame:        8192,
		paceSps:      1e6,
		gatewayProcs: 2,
		warm:         1 << 19,
	},
	{
		name:         "sparse-routed",
		stations:     2,
		rate:         10,
		frame:        4096,
		paceSps:      2e6,
		routed:       true,
		gatewayProcs: 1,
		routerProcs:  1,
		warm:         1 << 20,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// paced reports whether the workload runs an open loop.
func (w workload) paced() bool { return w.paceSps > 0 }

// plan fixes the period length and, for the open-loop workloads, the
// number of periods each station streams, so that the stream is a whole
// number of periods covering the warm-up plus `seconds` of schedule. The
// closed loop decides its period count while it runs (see sendClosed);
// plan returns 0 periods for it.
func (w workload) plan(seconds float64) (period int64, periods int) {
	f := int64(w.frame)
	if !w.paced() {
		return (periodTarget + f - 1) / f * f, 0
	}
	total := float64(w.warm) + seconds*w.paceSps
	periods = int(math.Round(total / float64(periodTarget)))
	if periods < 1 {
		periods = 1
	}
	period = int64(math.Ceil(total/float64(periods)/float64(f))) * f
	return period, periods
}
