package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
)

// alternatesFixture is a seeded five-packet collision with every packet as
// the preamble detector tracks it (estimated start, CFO and amplitude) and
// its true payload length.
func alternatesFixture(t *testing.T) (frame.Config, rx.SampleSource, []*rx.Packet) {
	t.Helper()
	cfg := testCfg()
	rng := rand.New(rand.NewSource(41))
	const nPkts, payloadLen = 5, 16
	var offsets []int64
	var snrs, cfos []float64
	var payloads [][]byte
	for i := 0; i < nPkts; i++ {
		p := make([]byte, payloadLen)
		rng.Read(p)
		payloads = append(payloads, p)
		offsets = append(offsets, int64(i)*5500+rng.Int63n(1024))
		snrs = append(snrs, 18+8*rng.Float64())
		cfos = append(cfos, (2*rng.Float64()-1)*9000)
	}
	src := collision(t, cfg, offsets, snrs, cfos, payloads, 7)
	det, err := rx.NewDetector(cfg, rx.DetectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := det.ScanDownchirp(src)
	if len(pkts) < 4 {
		t.Fatalf("fixture: detected %d packets, want at least 4", len(pkts))
	}
	for _, p := range pkts {
		p.NSymbols = phy.SymbolCount(cfg.PHY, payloadLen)
	}
	return cfg, src, pkts
}

// othersOf returns every fixture packet except pkts[i].
func othersOf(pkts []*rx.Packet, i int) []*rx.Packet {
	var out []*rx.Packet
	for j, q := range pkts {
		if j != i {
			out = append(out, q)
		}
	}
	return out
}

// alternatesVariants are the option sets the alternates tests cover: the
// default pipeline plus each ablation that changes the ranking rule.
var alternatesVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"no-sed", Options{DisableSED: true}},
	{"no-cfo", Options{DisableCFOFilter: true}},
	{"no-power", Options{DisablePowerFilter: true}},
}

// TestAlternatesPrimaryMatchesPickCollision: on every symbol of every
// packet of a multi-packet collision, the first ranked alternate is the
// value DemodulateSymbol picks — the chase pass retries alternates around
// the decoded symbols, so the two paths must agree.
func TestAlternatesPrimaryMatchesPickCollision(t *testing.T) {
	cfg, src, pkts := alternatesFixture(t)
	for _, v := range alternatesVariants {
		dmA, err := NewDemodulator(cfg, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		dmB, _ := NewDemodulator(cfg, v.opts)
		for i, p := range pkts {
			others := othersOf(pkts, i)
			for s := 0; s < p.NSymbols; s++ {
				pick := dmA.DemodulateSymbol(src, p, s, others)
				alts := dmB.PickSymbolAlternates(src, p, s, others)
				if len(alts) == 0 || alts[0] != pick {
					t.Fatalf("%s: packet %d symbol %d: alternates %v, pick %d", v.name, i, s, alts, pick)
				}
			}
		}
	}
}

// alternatesGolden are SHA-256 digests of every ranked-alternate list of
// alternatesFixture, per option variant. They pin the chase pass's input
// byte for byte (recorded before the candidate stage was fused into one
// gate/SED pass): a change to the candidate, gate, SED or ranking stages
// that reorders or drops any alternate changes the digest.
var alternatesGolden = map[string]string{
	"default":  "347c5b2ff16c9ca14ec9c6415c3647df3a0030c04213a72518171c242423a7cd",
	"no-sed":   "3c64ba4f16fcae557857a035177a97b8736e1852c412aed0b88e405cea7a1724",
	"no-cfo":   "15e883d670769aa123cc11d8d8ae7f1dfec6bf29a1c32b9a9fac0680a2cda091",
	"no-power": "12d39eec5d1dd373c1f66a6e31c43a912d84c0d732860c77dbd7b49015cf843b",
}

func TestAlternatesGoldenDigest(t *testing.T) {
	cfg, src, pkts := alternatesFixture(t)
	for _, v := range alternatesVariants {
		dm, err := NewDemodulator(cfg, v.opts)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var buf [2]byte
		lists := 0
		for i, p := range pkts {
			others := othersOf(pkts, i)
			for s := 0; s < p.NSymbols; s++ {
				alts := dm.PickSymbolAlternates(src, p, s, others)
				fmt.Fprintf(h, "%d/%d:%d:", i, s, len(alts))
				for _, a := range alts {
					binary.LittleEndian.PutUint16(buf[:], a)
					h.Write(buf[:])
				}
				lists++
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != alternatesGolden[v.name] {
			t.Errorf("%s: digest over %d alternate lists = %s, want %s", v.name, lists, got, alternatesGolden[v.name])
		}
	}
}
