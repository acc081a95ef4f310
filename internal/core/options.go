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

// Fixed demodulator tunables (the paper's values where it gives one).
const (
	// cfoToleranceBins is the fractional-CFO gate width in LoRa bins
	// (paper: a quarter bin, via a 16× zoom FFT).
	cfoToleranceBins = 0.25
	// cfoZoom is the zoom factor for fractional peak refinement (paper: 16).
	cfoZoom = 16
	// powerToleranceDB is the allowed deviation from the
	// preamble-estimated peak amplitude (paper: 3 dB).
	powerToleranceDB = 3.0
	// maxCandidates bounds how many intersected-spectrum peaks enter
	// candidate selection.
	maxCandidates = 8
	// candidateFraction: peaks below this fraction of the intersected
	// spectrum's maximum are not considered — a packet received 10 dB
	// below a surviving interferer tone must still enter candidacy, and
	// the CFO/power/SED stages are what discriminate.
	candidateFraction = 0.1
	// maxBoundaries caps the number of interferer boundaries per window
	// (nearest-boundary merging keeps the strongest structure).
	maxBoundaries = 16
	// minSubSymbolFrac: sub-symbols shorter than this fraction of the
	// symbol are left out of the ICSS. Heisenberg makes their frequency
	// resolution useless (a 1/32-symbol window resolves only B/32 ≈ 8-bin
	// lobes at SF8) while their noise-dominated spectra poison the
	// min-intersection, especially at low SNR.
	minSubSymbolFrac = 1.0 / 32
)

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

	// DisablePowerFilter turns off the received-power candidate gate (§5.7).
	DisablePowerFilter bool

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
	if o.Metrics == nil {
		o.Metrics = obs.Nop()
	}
}
