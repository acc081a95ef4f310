package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs. It refuses when
// fewer than minBeyond samples lie above the chosen rank (above the
// median), so a p99 needs at least 1000 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := nearestRank(n, q)
	if beyond := n - 1 - rank; q > 0.5 && beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*q, n, beyond, minBeyond)
	}
	return sortedAt(xs, rank), nil
}

// tailPercentile is percentile for the per-layer numbers: when xs is too
// small for the q-quantile it falls back to the highest quantile that
// still has minBeyond samples beyond it (the median at worst), and
// returns the quantile used.
func tailPercentile(xs []float64, q float64) (v, used float64, err error) {
	n := len(xs)
	if n == 0 {
		return 0, q, fmt.Errorf("percentile of no samples")
	}
	rank := nearestRank(n, q)
	if max := n - 1 - minBeyond; rank > max {
		rank = max
	}
	if med := nearestRank(n, 0.5); rank < med {
		rank = med
	}
	return sortedAt(xs, rank), float64(rank+1) / float64(n), nil
}

// nearestRank is the 0-based index of the q-quantile among n sorted
// samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	return rank
}

func sortedAt(xs []float64, rank int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank]
}

// median is the 0.5 nearest-rank quantile (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, _ := percentile(xs, 0.5)
	return v
}

// halfSymbol is the matching tolerance between a record's start and a
// ground-truth start: half a symbol at SF8 / OSR 4.
const halfSymbol = 512

// matchTruth returns the index of the ground-truth packet whose start is
// within halfSymbol of start, or -1. truth must be sorted by start.
func matchTruth(truth []gtPacket, start int64) int {
	i := sort.Search(len(truth), func(i int) bool { return truth[i].start >= start-halfSymbol })
	best, bestD := -1, int64(halfSymbol+1)
	for ; i < len(truth) && truth[i].start <= start+halfSymbol; i++ {
		d := truth[i].start - start
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// delivered reports whether rec is a verified decode of truth packet gt:
// CRC good and the payload equal to the transmitted one.
func delivered(rec record, gt gtPacket) bool {
	return rec.OK && rec.Payload == gt.payload
}

// lateness returns how late each open-loop send ran against its schedule,
// in milliseconds: sent[i] - due[i], or 0 when the send was on time.
func lateness(due, sent []time.Duration) []float64 {
	out := make([]float64, len(sent))
	for i := range sent {
		if d := sent[i] - due[i]; d > 0 {
			out[i] = float64(d) / float64(time.Millisecond)
		}
	}
	return out
}

// paceDue is the open-loop schedule: frame f of a station carries samples
// [f*frame, (f+1)*frame) and is due once its last sample would have left
// the radio, at (f+1)*frame / sps after the stream's time origin.
func paceDue(f, frame int, sps float64) time.Duration {
	return time.Duration(float64(f+1) * float64(frame) / sps * float64(time.Second))
}

// checkPlacement verifies that the routed stations landed one per backend:
// each backend's server_sessions_total counts exactly one session.
func checkPlacement(sessionsByBackend map[string]int64, stations int) error {
	if len(sessionsByBackend) != stations {
		return fmt.Errorf("placement: %d backends for %d stations", len(sessionsByBackend), stations)
	}
	for name, n := range sessionsByBackend {
		if n != 1 {
			return fmt.Errorf("placement: backend %s holds %d sessions, want 1", name, n)
		}
	}
	return nil
}

// recordKey is the part of a record the correctness gate compares.
type recordKey struct {
	Start        int64
	OK           bool
	Payload      string
	FECCorrected int
}

// compareRecords counts the records of want that got lacks plus the
// records of got that want lacks, so a record that differs counts twice.
func compareRecords(want, got []recordKey) (bad int) {
	n := make(map[recordKey]int, len(want))
	for _, r := range want {
		n[r]++
	}
	for _, r := range got {
		n[r]--
	}
	for _, c := range n {
		if c < 0 {
			c = -c
		}
		bad += c
	}
	return bad
}

// repeatPeriods expands one period's records to n back-to-back periods.
func repeatPeriods(period []recordKey, periodLen int64, n int) []recordKey {
	out := make([]recordKey, 0, len(period)*n)
	for j := 0; j < n; j++ {
		for _, r := range period {
			r.Start += int64(j) * periodLen
			out = append(out, r)
		}
	}
	return out
}
