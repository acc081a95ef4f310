// Package stdlora holds the pieces of the standard single-packet LoRa
// receiver used as the paper's baseline: a one-packet-at-a-time lock with
// capture behaviour, and plain argmax-of-the-folded-spectrum
// demodulation. cic.Gateway runs them behind conventional up-chirp
// preamble detection. Under collisions the receiver decodes whichever
// transmission captures the radio and loses the rest — the behaviour
// Figs 28–31 quantify.
package stdlora

import (
	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/rx"
)

// CaptureMarginDB is how much stronger a later preamble must be to steal
// the lock from the packet currently being received, mimicking the capture
// effect of commercial transceivers.
const CaptureMarginDB = 6

// CaptureFilter models the standard gateway's single demodulator: packets
// are taken in arrival order; a packet arriving while another is being
// received is dropped unless its preamble is at least CaptureMarginDB
// stronger, in which case it steals the lock (the current packet is lost).
func CaptureFilter(cfg frame.Config, pkts []*rx.Packet) []*rx.Packet {
	margin := dsp.AmplitudeFromDB(CaptureMarginDB)
	var out []*rx.Packet
	var cur *rx.Packet
	for _, p := range pkts {
		if cur == nil || p.Start >= cur.End(cfg) {
			if cur != nil {
				out = append(out, cur)
			}
			cur = p
			continue
		}
		// p arrives during cur's reception.
		if p.PeakAmp > cur.PeakAmp*margin {
			cur = p // capture: the stronger packet steals the lock
		}
		// else: p is lost (receiver busy).
	}
	if cur != nil {
		out = append(out, cur)
	}
	return out
}

// Picker demodulates by taking the strongest folded bin — correct for a
// lone transmission, and exactly what goes wrong during collisions.
type Picker struct {
	d *rx.Demod
}

// NewPicker builds the argmax symbol picker.
func NewPicker(cfg frame.Config) (*Picker, error) {
	d, err := rx.NewDemod(cfg)
	if err != nil {
		return nil, err
	}
	return &Picker{d: d}, nil
}

// PickSymbol implements rx.SymbolPicker.
func (p *Picker) PickSymbol(src rx.SampleSource, pkt *rx.Packet, symIdx int, _ []*rx.Packet) uint16 {
	p.d.LoadWindow(src, pkt.SymbolStart(p.d.Config(), symIdx), pkt.CFOHz)
	_, at := p.d.FoldedSpectrum().Max()
	if at < 0 {
		return 0
	}
	return uint16(at)
}

// PickSymbolAlternates implements rx.AlternatePicker: the strongest folded
// peaks in descending power order, so the pipeline's CRC-driven chase pass
// treats the baseline with the same decoder-side machinery as CIC.
func (p *Picker) PickSymbolAlternates(src rx.SampleSource, pkt *rx.Packet, symIdx int, _ []*rx.Packet) []uint16 {
	p.d.LoadWindow(src, pkt.SymbolStart(p.d.Config(), symIdx), pkt.CFOHz)
	peaks := dsp.TopPeaks(p.d.FoldedSpectrum(), 0.05, 3)
	if len(peaks) == 0 {
		return []uint16{0}
	}
	out := make([]uint16, 0, len(peaks))
	for _, pk := range peaks {
		out = append(out, uint16(pk.Bin))
	}
	return out
}
