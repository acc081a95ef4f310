package rx

import (
	"bytes"
	"testing"

	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
)

func pipelineCfg() frame.Config {
	return frame.Config{
		Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 2},
		PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
		SyncWord: 0x34,
	}
}

func TestHeaderFromSymbols(t *testing.T) {
	cfg := pipelineCfg()
	payload := []byte("header probe payload")
	syms, _ := phy.Encode(payload, cfg.PHY)
	hdr, ok := HeaderFromSymbols(syms[:phy.HeaderSymbolCount], cfg.PHY)
	if !ok {
		t.Fatal("header not recovered")
	}
	if int(hdr.Length) != len(payload) || !hdr.HasCRC {
		t.Errorf("header: %+v", hdr)
	}
	if _, ok := HeaderFromSymbols(make([]uint16, phy.HeaderSymbolCount), cfg.PHY); ok {
		t.Error("all-zero block produced a valid header")
	}
}

// TestChaseDecodeRecoversMarginalSymbols: one and two symbols whose first
// choice is wrong, with the truth as runner-up, are repaired by the
// CRC-driven chase pass; three are not (the pair search only covers two
// substitutions).
func TestChaseDecodeRecoversMarginalSymbols(t *testing.T) {
	cfg := pipelineCfg()
	payload := []byte("chase decoding target")
	truth, err := phy.Encode(payload, cfg.PHY)
	if err != nil {
		t.Fatal(err)
	}
	for _, nCorrupt := range []int{1, 2, 3} {
		syms := append([]uint16(nil), truth...)
		alternates := make([][]uint16, len(syms)-phy.HeaderSymbolCount)
		for i := range alternates {
			alternates[i] = []uint16{syms[phy.HeaderSymbolCount+i]}
		}
		for i := 0; i < nCorrupt; i++ {
			s := 3 + 2*i
			v := phy.HeaderSymbolCount + s
			syms[v] = (truth[v] + 7) % 256
			alternates[s] = []uint16{syms[v], truth[v]}
		}
		if dec, err := phy.Decode(syms, cfg.PHY); err == nil && dec.CRCOK {
			t.Fatalf("nCorrupt=%d: corrupted symbols still pass the CRC", nCorrupt)
		}
		dec, ok := ChaseDecode(syms, alternates, cfg.PHY)
		got := ok && bytes.Equal(dec.Payload, payload)
		want := nCorrupt <= 2
		if got != want {
			t.Errorf("nCorrupt=%d: recovered=%v, want %v", nCorrupt, got, want)
		}
	}
}

func TestChaseDecodeDirect(t *testing.T) {
	cfg := pipelineCfg()
	payload := []byte("direct chase")
	syms, _ := phy.Encode(payload, cfg.PHY)
	bad := append([]uint16(nil), syms...)
	victim := phy.HeaderSymbolCount + 2
	truth := bad[victim]
	bad[victim] = (truth + 9) % 256
	alternates := make([][]uint16, len(syms)-phy.HeaderSymbolCount)
	for i := range alternates {
		alternates[i] = []uint16{bad[phy.HeaderSymbolCount+i]}
	}
	// Without the truth in the alternates: unrecoverable.
	if _, ok := ChaseDecode(bad, alternates, cfg.PHY); ok {
		t.Error("chase succeeded without the true candidate")
	}
	// With it: recovered.
	alternates[2] = []uint16{bad[victim], truth}
	dec, ok := ChaseDecode(bad, alternates, cfg.PHY)
	if !ok || !dec.CRCOK || !bytes.Equal(dec.Payload, payload) {
		t.Error("chase failed to repair a single marginal symbol")
	}
}
