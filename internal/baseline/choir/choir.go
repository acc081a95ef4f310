// Package choir is a clean-room implementation of Choir (Eletreby et al.,
// SIGCOMM 2017), the first significant LoRa collision decoder: it detects
// packets with the conventional up-chirp method and disentangles collided
// symbols by matching each spectral peak's *fractional* frequency offset to
// the transmitter's hardware-induced CFO, which is unique per device and
// stable across a packet.
package choir

import (
	"math"
	"sort"

	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/rx"
)

// Options tunes the Choir demodulator.
type Options struct {
	// TopK peaks per symbol window considered for CFO matching. Default 6.
	TopK int
	// Zoom factor for fractional peak refinement (Choir interpolates the
	// FFT; we use the equivalent zoom DTFT). Default 16.
	Zoom int
}

func (o *Options) setDefaults() {
	if o.TopK == 0 {
		o.TopK = 6
	}
	if o.Zoom == 0 {
		o.Zoom = 16
	}
}

// Picker assigns each symbol the candidate peak whose fractional frequency
// offset best matches the packet's CFO. After the de-chirp removes the
// packet's own CFO, the wanted peak sits on (or nearest to) the integer bin
// grid; interfering symbols carry other CFOs plus the Δf of their partial
// overlap (Eqn 10) and land off-grid.
type Picker struct {
	opts Options
	d    *rx.Demod
}

// NewPicker builds the Choir symbol picker.
func NewPicker(cfg frame.Config, opts Options) (*Picker, error) {
	opts.setDefaults()
	d, err := rx.NewDemod(cfg)
	if err != nil {
		return nil, err
	}
	return &Picker{opts: opts, d: d}, nil
}

// PickSymbol implements rx.SymbolPicker.
func (p *Picker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, others []*rx.Packet) uint16 {
	return p.PickSymbolAlternates(src, pkt, symIdx, others)[0]
}

// PickSymbolAlternates implements rx.AlternatePicker: candidate values
// ordered by fractional-CFO match quality (Choir's own criterion), giving
// the baseline the same CRC-driven chase machinery as CIC.
func (p *Picker) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, _ []*rx.Packet) []uint16 {
	cfg := p.d.Config()
	n := cfg.Chirp.ChipCount()
	m := cfg.Chirp.SamplesPerSymbol()
	osr := cfg.Chirp.OSR
	p.d.LoadWindow(src, pkt.SymbolStart(cfg, symIdx), pkt.CFOHz)
	spec := p.d.FoldedSpectrum()
	peaks := dsp.TopPeaks(spec, 0.05, p.opts.TopK)
	if len(peaks) == 0 {
		return []uint16{0}
	}
	dech := p.d.Dechirped()
	type scored struct {
		bin  int
		frac float64
	}
	var cands []scored
	for _, pk := range peaks {
		// Refine on the stronger M-grid image.
		hiImage := pk.Bin + (osr-1)*n
		lo := dsp.DFTBin(dech, m, float64(pk.Bin))
		hi := dsp.DFTBin(dech, m, float64(hiImage))
		img := pk.Bin
		if real(hi)*real(hi)+imag(hi)*imag(hi) > real(lo)*real(lo)+imag(lo)*imag(lo) {
			img = hiImage
		}
		pos, _ := dsp.RefinePeak(dech, m, img, p.opts.Zoom)
		v := int(math.Round(pos)) % n
		if v < 0 {
			v += n
		}
		cands = append(cands, scored{bin: v, frac: math.Abs(pos - math.Round(pos))})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].frac < cands[b].frac })
	out := make([]uint16, 0, len(cands))
	for _, c := range cands {
		v := uint16(c.bin)
		dup := false
		for _, prev := range out {
			if prev == v {
				dup = true
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}
