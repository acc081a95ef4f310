package rx

import (
	"errors"

	"cic/internal/obs"
	"cic/internal/phy"
)

// SymbolPicker chooses a symbol value for one window of one tracked packet.
// Implementations embody a receiver's demodulation strategy: plain argmax
// (standard LoRa), CFO matching (Choir), time-frequency tracks (FTrack) or
// concurrent interference cancellation (CIC). A picker is used by a single
// goroutine at a time.
type SymbolPicker interface {
	PickSymbol(src SampleSource, pkt *Packet, symIdx int, others []*Packet) uint16
}

// AlternatePicker is an optional extension of SymbolPicker: it returns the
// plausible symbol values for a window ranked best-first. When a picker
// implements it, the decoder runs a CRC-driven chase pass — on a failed
// payload CRC it retries the runner-up value on the marginal symbols, a
// standard receiver trick that converts packets with one or two borderline
// symbols from losses into successes.
//
// The returned slice is the picker's scratch, valid only until the next
// PickSymbolAlternates call on the same picker: callers that keep
// alternates across symbols (the chase pass does) must copy the values
// out. The contract keeps the per-symbol hot path allocation-free.
type AlternatePicker interface {
	SymbolPicker
	PickSymbolAlternates(src SampleSource, pkt *Packet, symIdx int, others []*Packet) []uint16
}

// GateTallier is implemented by pickers (the CIC demodulator) that
// accumulate per-packet gate verdicts; the gateway drains the tally after
// each packet to attribute gate activity in trace events.
type GateTallier interface {
	TakeGateTally() obs.GateCounts
}

// ChaseDecode retries a failed payload CRC by substituting runner-up
// candidates on the ambiguous symbols: first every single substitution,
// then pairs over the first few ambiguous symbols. Symbol index s in
// alternates corresponds to syms[HeaderSymbolCount+s]. It returns the
// first substitution whose payload CRC verifies.
func ChaseDecode(syms []uint16, alternates [][]uint16, cfg phy.Config) (*phy.DecodeResult, bool) {
	var ambiguous []int // payload-symbol indices with a second candidate
	for s, ranked := range alternates {
		if len(ranked) > 1 {
			ambiguous = append(ambiguous, s)
		}
	}
	const maxSingles = 24
	if len(ambiguous) > maxSingles {
		ambiguous = ambiguous[:maxSingles]
	}
	try := func(trial []uint16) (*phy.DecodeResult, bool) {
		dec, err := phy.Decode(trial, cfg)
		if err == nil && dec.CRCOK {
			return dec, true
		}
		return nil, false
	}
	trial := make([]uint16, len(syms))
	// Single substitutions.
	for _, s := range ambiguous {
		copy(trial, syms)
		trial[phy.HeaderSymbolCount+s] = alternates[s][1]
		if dec, ok := try(trial); ok {
			return dec, true
		}
	}
	// Pair substitutions over the first few ambiguous symbols.
	const maxPairBase = 10
	limit := len(ambiguous)
	if limit > maxPairBase {
		limit = maxPairBase
	}
	for a := 0; a < limit; a++ {
		for b := a + 1; b < limit; b++ {
			copy(trial, syms)
			trial[phy.HeaderSymbolCount+ambiguous[a]] = alternates[ambiguous[a]][1]
			trial[phy.HeaderSymbolCount+ambiguous[b]] = alternates[ambiguous[b]][1]
			if dec, ok := try(trial); ok {
				return dec, true
			}
		}
	}
	return nil, false
}

// HeaderFromSymbols decodes the explicit header from the first block of
// symbols; ok is false when the header checksum fails.
func HeaderFromSymbols(syms []uint16, cfg phy.Config) (phy.Header, bool) {
	res, err := phy.Decode(syms, cfg)
	if err != nil && !errors.Is(err, phy.ErrTooFewSymbols) {
		return phy.Header{}, false
	}
	if res == nil {
		return phy.Header{}, false
	}
	return res.Header, true
}
