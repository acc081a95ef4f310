package sim

import (
	"bytes"

	"cic/internal/rx"
)

// Decode is one receiver output as scoring sees it.
type Decode struct {
	Start   int64  // estimated first preamble sample
	Payload []byte // decoded payload (nil when the decode failed)
	OK      bool   // header checksum and payload CRC both passed
}

// Score summarises a receiver's performance on one run.
type Score struct {
	Offered  int // packets transmitted
	Detected int // detections matched to a real transmission
	Decoded  int // packets whose every payload bit was recovered
	False    int // detections/decodes not matching any transmission

	Duration float64 // seconds
}

// OfferedRate returns offered packets per second.
func (s Score) OfferedRate() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Offered) / s.Duration
}

// Throughput returns correctly decoded packets per second (the paper's
// network-capacity metric: all bits correct).
func (s Score) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Decoded) / s.Duration
}

// DetectionRate returns the fraction of transmitted packets whose preamble
// was detected (Figs 32–35).
func (s Score) DetectionRate() float64 {
	if s.Offered == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Offered)
}

// matchWindow is how far (in samples) a detection may sit from the true
// packet start and still count, expressed in symbol fractions.
func matchWindow(run *Run) int64 {
	return int64(run.Cfg.Chirp.SamplesPerSymbol() / 2)
}

// ScoreDecodes scores end-to-end decoding: a truth packet counts as decoded
// when some result within half a symbol of its start reproduces its payload
// exactly and passes the CRC. Each result can claim at most one truth
// packet and vice versa.
func ScoreDecodes(run *Run, results []Decode, duration float64) Score {
	s := Score{Offered: len(run.Truth), Duration: duration}
	win := matchWindow(run)
	claimed := make([]bool, len(results))
	for _, tx := range run.Truth {
		matchedDetect := false
		matchedDecode := false
		for i, res := range results {
			if claimed[i] {
				continue
			}
			d := res.Start - tx.StartSample
			if d < -win || d > win {
				continue
			}
			matchedDetect = true
			if res.OK && bytes.Equal(res.Payload, tx.Payload) {
				claimed[i] = true
				matchedDecode = true
				break
			}
		}
		if matchedDetect {
			s.Detected++
		}
		if matchedDecode {
			s.Decoded++
		}
	}
	for i, res := range results {
		if !claimed[i] && res.OK {
			// Decoded something that matches no transmission: false decode.
			matched := false
			for _, tx := range run.Truth {
				d := res.Start - tx.StartSample
				if d >= -win && d <= win {
					matched = true
					break
				}
			}
			if !matched {
				s.False++
			}
		}
	}
	return s
}

// ScoreDetections scores preamble detection only: a truth packet counts as
// detected when some tracked packet starts within half a symbol of it.
func ScoreDetections(run *Run, pkts []*rx.Packet, duration float64) Score {
	s := Score{Offered: len(run.Truth), Duration: duration}
	win := matchWindow(run)
	used := make([]bool, len(pkts))
	for _, tx := range run.Truth {
		for i, p := range pkts {
			if used[i] {
				continue
			}
			d := p.Start - tx.StartSample
			if d >= -win && d <= win {
				used[i] = true
				s.Detected++
				break
			}
		}
	}
	for i := range pkts {
		if !used[i] {
			s.False++
		}
	}
	return s
}
