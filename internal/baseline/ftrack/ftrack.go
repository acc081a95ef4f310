// Package ftrack is a clean-room implementation of FTrack (Xia, Zheng, Gu —
// SenSys 2019), the strongest prior collision decoder the paper compares
// against. FTrack slides a symbol-length window over the de-chirped signal
// and builds time–frequency *tracks*: the wanted symbol's frequency spans
// the entire symbol window, while an interferer's C_prev/C_next track
// terminates or begins at the interferer's symbol boundary.
//
// This implementation captures FTrack's decision structure and its two
// documented failure modes: (1) track extraction thresholds operate on
// sub-window spectra whose SNR is reduced, so low-SNR tracks vanish
// (FTrack "fails to detect packets with low SNR, especially in the
// presence of stronger transmitters"); (2) the sub-window spectra trade
// frequency resolution for time resolution, so heavily-overlapped
// collisions merge tracks and confuse the matcher.
package ftrack

import (
	"sort"

	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/rx"
)

// Options tunes the FTrack demodulator.
type Options struct {
	// SubWindows is the number of overlapping sub-windows per symbol used
	// to build the time profile of each track. Default 8.
	SubWindows int
	// SubSpan is the sub-window length as a fraction of the symbol.
	// Default 0.5 (half-symbol windows: FTrack's compromise between time
	// and frequency resolution).
	SubSpan float64
	// TrackThreshold: a track is "present" in a sub-window when its bin
	// power exceeds this multiple of the sub-window's noise floor.
	// Default 6 — a hard threshold, the source of FTrack's low-SNR
	// collapse.
	TrackThreshold float64
	// TopK candidate peaks per symbol. Default 6.
	TopK int
}

func (o *Options) setDefaults() {
	if o.SubWindows == 0 {
		o.SubWindows = 8
	}
	if o.SubSpan == 0 {
		o.SubSpan = 0.5
	}
	if o.TrackThreshold == 0 {
		o.TrackThreshold = 6
	}
	if o.TopK == 0 {
		o.TopK = 6
	}
}

// Picker selects, among the full-window spectral peaks, the one whose
// track spans every sub-window of the symbol.
type Picker struct {
	opts Options
	d    *rx.Demod
	subs []dsp.Spectrum
}

// NewPicker builds the FTrack symbol picker.
func NewPicker(cfg frame.Config, opts Options) (*Picker, error) {
	opts.setDefaults()
	d, err := rx.NewDemod(cfg)
	if err != nil {
		return nil, err
	}
	subs := make([]dsp.Spectrum, opts.SubWindows)
	for i := range subs {
		subs[i] = make(dsp.Spectrum, cfg.Chirp.ChipCount())
	}
	return &Picker{opts: opts, d: d, subs: subs}, nil
}

// PickSymbol implements rx.SymbolPicker.
func (p *Picker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	return p.PickSymbolAlternates(src, pkt, symIdx, others)[0]
}

// PickSymbolAlternates implements rx.AlternatePicker: candidate values
// ordered by track span then power (FTrack's own criterion), giving the
// baseline the same CRC-driven chase machinery as CIC.
func (p *Picker) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, _ []*rx.Packet) []uint16 {
	cfg := p.d.Config()
	m := cfg.Chirp.SamplesPerSymbol()
	p.d.LoadWindow(src, pkt.SymbolStart(cfg, symIdx), pkt.CFOHz)
	full := p.d.FoldedSpectrum()
	peaks := dsp.TopPeaks(full, 0.05, p.opts.TopK)
	if len(peaks) == 0 {
		return []uint16{0}
	}
	if len(peaks) == 1 {
		return []uint16{uint16(peaks[0].Bin)}
	}

	// Build the track presence profile from overlapping sub-windows.
	span := int(p.opts.SubSpan * float64(m))
	if span < 1 {
		span = 1
	}
	step := (m - span) / (p.opts.SubWindows - 1)
	if step < 1 {
		step = 1
	}
	floors := make([]float64, p.opts.SubWindows)
	for i := 0; i < p.opts.SubWindows; i++ {
		from := i * step
		p.subs[i] = p.d.SubSymbolSpectrum(p.subs[i], from, from+span)
		floors[i] = dsp.NoiseFloor(p.subs[i])
	}

	// The wanted symbol's track must span every sub-window; when no track
	// does (low SNR or merged tracks), FTrack is left matching whatever
	// track fragments its thresholds produced, so the candidate with the
	// longest observed span wins — at sub-noise SNR the spans are
	// noise-driven and the choice degrades accordingly, which is exactly
	// the low-SNR collapse the CIC paper reports for FTrack.
	type scored struct {
		bin, span int
		pow       float64
	}
	cands := make([]scored, 0, len(peaks))
	for _, pk := range peaks {
		span := 0
		for i := range p.subs {
			if floors[i] > 0 && p.subs[i][pk.Bin] >= p.opts.TrackThreshold*floors[i] {
				span++
			}
		}
		cands = append(cands, scored{bin: pk.Bin, span: span, pow: pk.Power})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].span != cands[b].span {
			return cands[a].span > cands[b].span
		}
		return cands[a].pow > cands[b].pow
	})
	out := make([]uint16, 0, len(cands))
	for _, c := range cands {
		out = append(out, uint16(c.bin))
	}
	return out
}
