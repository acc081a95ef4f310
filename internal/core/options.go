// Package core implements the paper's contribution: Concurrent
// Interference Cancellation (CIC) demodulation of collided LoRa packets
// (paper §5).
//
// For each symbol of a tracked packet, the demodulator gathers the symbol
// boundaries of every interfering transmission inside the window, forms the
// optimal Interference-Cancelling Sub-Symbol Set — all pairs
// Φ(r_{1→i}), Φ(r_{i→N+1}) plus the whole symbol Φ(r) (Eqn 12) — and takes
// the spectral intersection (element-wise minimum of unit-energy spectra).
// Every interfering symbol is absent from at least one sub-symbol of the
// set, so the intersection suppresses it at the best frequency resolution
// Heisenberg's time–frequency uncertainty permits (§5.1–5.4). Residual
// candidates are resolved by the Spectral Edge Difference (§5.6) and by the
// per-transmitter CFO and received-power filters (§5.7).
package core

import "cic/internal/obs"

// Options tunes the CIC demodulator; the zero value enables the full
// paper configuration (SED + CFO filter + power filter, optimal ICSS).
type Options struct {
	// Strawman restricts the ICSS to {r_{1→2}, r_{N→N+1}} (§5 "A
	// Strawman-CIC"), reproducing Fig 13's loss of resolution.
	Strawman bool

	// DisableSED turns off Spectral Edge Difference candidate selection.
	DisableSED bool
	// SEDWindows is the number of sliding half-symbol windows per edge
	// (paper: 10).
	SEDWindows int

	// DisableCFOFilter turns off the fractional-CFO candidate gate (§5.7).
	DisableCFOFilter bool
	// CFOToleranceBins is the fractional-CFO gate width in LoRa bins
	// (paper: a quarter bin, via a 16× zoom FFT).
	CFOToleranceBins float64
	// CFOZoom is the zoom factor for fractional peak refinement (paper: 16).
	CFOZoom int

	// DisablePowerFilter turns off the received-power candidate gate (§5.7).
	DisablePowerFilter bool
	// PowerToleranceDB is the allowed deviation from the preamble-estimated
	// peak amplitude (paper: 3 dB).
	PowerToleranceDB float64

	// MaxCandidates bounds how many intersected-spectrum peaks enter
	// candidate selection. Default 8.
	MaxCandidates int
	// CandidateFraction: peaks below this fraction of the intersected
	// spectrum's maximum are not considered. Default 0.1 — a packet
	// received 10 dB below a surviving interferer tone must still enter
	// candidacy, and the CFO/power/SED stages are what discriminate.
	CandidateFraction float64
	// MaxBoundaries caps the number of interferer boundaries per window
	// (nearest-boundary merging keeps the strongest structure). Default 16.
	MaxBoundaries int
	// MinSubSymbolFrac: sub-symbols shorter than this fraction of the
	// symbol are left out of the ICSS. Heisenberg makes their frequency
	// resolution useless (a 1/32-symbol window resolves only B/32 ≈ 8-bin
	// lobes at SF8) while their noise-dominated spectra poison the
	// min-intersection, especially at low SNR. Default 1/32.
	MinSubSymbolFrac float64

	// Metrics receives the demodulation-stage counters (symbols, ICSS
	// sub-symbol counts, SED/CFO/power gate verdicts). Nil disables them;
	// setDefaults substitutes the shared no-op set so the hot path is a
	// single nil-field test per operation.
	Metrics *obs.DecodeMetrics
}

func (o *Options) setDefaults() {
	if o.SEDWindows == 0 {
		o.SEDWindows = 10
	}
	if o.CFOToleranceBins == 0 {
		o.CFOToleranceBins = 0.25
	}
	if o.CFOZoom == 0 {
		o.CFOZoom = 16
	}
	if o.PowerToleranceDB == 0 {
		o.PowerToleranceDB = 3
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.CandidateFraction == 0 {
		o.CandidateFraction = 0.1
	}
	if o.MaxBoundaries == 0 {
		o.MaxBoundaries = 16
	}
	if o.MinSubSymbolFrac == 0 {
		o.MinSubSymbolFrac = 1.0 / 32
	}
	if o.Metrics == nil {
		o.Metrics = obs.Nop()
	}
}
