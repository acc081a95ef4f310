package eval

import (
	"fmt"
	"math"
	"math/rand"

	"cic"
	"cic/internal/channel"
	"cic/internal/chirp"
	"cic/internal/core"
	"cic/internal/dsp"
	"cic/internal/frame"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/sim"
)

// Config carries the experiment-wide knobs. DefaultConfig mirrors the
// paper's deployment configuration (SF8, BW 250 kHz, CR 4/5, 28-byte
// payloads, 20 nodes) with a simulation duration short enough for
// laptop-scale regeneration; raise Duration (the paper used 60 s per rate
// point) for tighter statistics.
type Config struct {
	Frame      frame.Config
	Rates      []float64 // aggregate offered loads, packets/second
	Duration   float64   // seconds per rate point
	PayloadLen int
	Seed       int64
	Workers    int
}

// DefaultConfig returns the paper-matching configuration.
func DefaultConfig() Config {
	return Config{
		Frame: frame.Config{
			Chirp:    chirp.Params{SF: 8, Bandwidth: 250e3, OSR: 4},
			PHY:      phy.Config{SF: 8, CR: phy.CR45, HasCRC: true},
			SyncWord: 0x34,
		},
		Rates:      []float64{5, 10, 20, 40, 60, 80, 100},
		Duration:   2.0,
		PayloadLen: 28,
		Seed:       1,
		Workers:    0,
	}
}

// Ablation regenerates Figs 36–37: throughput for the four CIC feature
// variants in one deployment (the paper shows D1 and D4).
func Ablation(cfg Config, dep sim.Deployment) (Figure, error) {
	id := "fig36"
	if dep.Name == "D4" {
		id = "fig37"
	}
	return cicSweep(cfg, dep, Figure{
		ID:    id,
		Title: fmt.Sprintf("Effect of Removing CIC Features for %s", dep.Name),
	}, cicVariants)
}

// ICSSComparison is an extension figure implied by the paper's Figs 13–14:
// network throughput of full CIC vs Strawman-CIC (the two-sub-symbol ICSS)
// under the same traffic, quantifying what the optimal ICSS choice of §5.4
// is worth end to end.
func ICSSComparison(cfg Config, dep sim.Deployment) (Figure, error) {
	return cicSweep(cfg, dep, Figure{
		ID:    "icss",
		Title: fmt.Sprintf("Optimal ICSS vs Strawman for %s", dep.Name),
	}, []cicVariant{
		{"CIC (optimal ICSS)", nil},
		{"Strawman-CIC", []cic.Option{cic.WithAlgorithm(cic.AlgorithmStrawman)}},
	})
}

// cicSweep fills fig with the decoded throughput of each CIC variant over
// cfg.Rates in one deployment, every variant decoding the same rendered
// traffic at each rate.
func cicSweep(cfg Config, dep sim.Deployment, fig Figure, variants []cicVariant) (Figure, error) {
	fig.XLabel, fig.YLabel = "offered pkts/s", "decoded pkts/s"
	receivers := make([]Receiver, len(variants))
	fig.Series = make([]Series, len(variants))
	for i, v := range variants {
		r, err := v.receiver(cfg.Frame, cfg.Workers, nil)
		if err != nil {
			return Figure{}, err
		}
		receivers[i] = r
		fig.Series[i].Name = v.name
	}
	nw, err := sim.NewNetwork(cfg.Frame, dep, cfg.Seed)
	if err != nil {
		return Figure{}, err
	}
	for ri, rate := range cfg.Rates {
		run, err := nw.BuildRun(rate, cfg.Duration, cfg.PayloadLen, cfg.Seed+int64(ri)*101)
		if err != nil {
			return Figure{}, err
		}
		for i, r := range receivers {
			results, err := r.Receive(run.Source)
			if err != nil {
				return Figure{}, err
			}
			score := sim.ScoreDecodes(run, results, cfg.Duration)
			fig.Series[i].X = append(fig.Series[i].X, rate)
			fig.Series[i].Y = append(fig.Series[i].Y, score.Throughput())
		}
	}
	return fig, nil
}

// TemporalProximity regenerates Fig 38: symbol error rate of CIC as two
// packets collide with sub-symbol boundary offsets, at 30 dB SNR (the
// paper's simulation study; COTS devices cannot be synchronised this
// tightly).
func TemporalProximity(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig38",
		Title:  "SER vs sub-symbol collision offset (two packets, 30 dB)",
		XLabel: "dTau/Ts",
		YLabel: "symbol error rate",
	}
	mod, err := frame.NewModulator(cfg.Frame)
	if err != nil {
		return Figure{}, err
	}
	m := cfg.Frame.Chirp.SamplesPerSymbol()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ser := Series{Name: "CIC"}
	for frac := 0.0; frac < 0.999; frac += 0.1 {
		offset := int64(frac * float64(m))
		errs, total, err := temporalSERPoint(cfg, mod, offset, rng)
		if err != nil {
			return Figure{}, err
		}
		ser.X = append(ser.X, frac)
		ser.Y = append(ser.Y, float64(errs)/float64(total))
	}
	fig.Series = []Series{ser}
	return fig, nil
}

// temporalSERPoint measures CIC symbol errors for one sub-symbol offset.
func temporalSERPoint(cfg Config, mod *frame.Modulator, offset int64, rng *rand.Rand) (errs, total int, err error) {
	fcfg := cfg.Frame
	payA := make([]byte, cfg.PayloadLen)
	payB := make([]byte, cfg.PayloadLen)
	rng.Read(payA)
	rng.Read(payB)
	symsA, err := phy.Encode(payA, fcfg.PHY)
	if err != nil {
		return 0, 0, err
	}
	symsB, err := phy.Encode(payB, fcfg.PHY)
	if err != nil {
		return 0, 0, err
	}
	waveA, _, err := mod.Modulate(payA)
	if err != nil {
		return 0, 0, err
	}
	waveB, _, err := mod.Modulate(payB)
	if err != nil {
		return 0, 0, err
	}
	const snr = 30.0
	cfoA := channel.RandomCFO(rng, sim.CrystalPPM, sim.CarrierHz)
	cfoB := channel.RandomCFO(rng, sim.CrystalPPM, sim.CarrierHz)
	base := int64(4 * fcfg.Chirp.SamplesPerSymbol())
	ems := []channel.Emission{
		{Start: base, Samples: channel.Apply(waveA, channel.Impairments{
			Amplitude: channel.AmplitudeForSNR(snr), CFOHz: cfoA, SampleRate: fcfg.Chirp.SampleRate()})},
		{Start: base + offset, Samples: channel.Apply(waveB, channel.Impairments{
			Amplitude: channel.AmplitudeForSNR(snr), CFOHz: cfoB, SampleRate: fcfg.Chirp.SampleRate(),
			InitialPhase: 1.7})},
	}
	src := rx.SourceFromRenderer(channel.NewRenderer(ems, fcfg.Chirp.OSR, cfg.Seed^offset))

	// Truth-aligned tracking: the packets start (near-)simultaneously, so
	// their overlapping preambles cannot be separated by detection; the
	// paper's simulation likewise measures pure demodulation.
	pkts := []*rx.Packet{
		{ID: 0, Start: base, CFOHz: cfoA, NSymbols: len(symsA)},
		{ID: 1, Start: base + offset, CFOHz: cfoB, NSymbols: len(symsB)},
	}
	d, err := rx.NewDemod(fcfg)
	if err != nil {
		return 0, 0, err
	}
	for _, p := range pkts {
		d.LoadWindow(src, p.Start+int64(2*fcfg.Chirp.SamplesPerSymbol()), p.CFOHz)
		peak, _ := d.FoldedSpectrum().Max()
		p.PeakAmp = math.Sqrt(peak)
	}
	dm, err := core.NewDemodulator(fcfg, core.Options{})
	if err != nil {
		return 0, 0, err
	}
	truth := [][]uint16{symsA, symsB}
	for pi, p := range pkts {
		other := []*rx.Packet{pkts[1-pi]}
		for s := 0; s < p.NSymbols; s++ {
			got := dm.DemodulateSymbol(src, p, s, other)
			total++
			if got != truth[pi][s] {
				errs++
			}
		}
	}
	return errs, total, nil
}

// Cancellation regenerates Fig 17: the cancellation depth (dB) CIC achieves
// on a single interfering symbol as a function of its boundary proximity
// Δτ/Ts and frequency proximity Δf/B, at SF8, noise-free.
func Cancellation(cfg Config) (Figure, error) {
	fcfg := cfg.Frame
	gen, err := chirp.NewGenerator(fcfg.Chirp)
	if err != nil {
		return Figure{}, err
	}
	m := fcfg.Chirp.SamplesPerSymbol()
	n := fcfg.Chirp.ChipCount()
	fig := Figure{
		ID:     "fig17",
		Title:  "Cancellation (dB) of one interfering symbol vs dTau and dF (SF8)",
		XLabel: "dTau/Ts",
		YLabel: "cancellation dB",
	}
	// Our symbol sits at bin 0. Δf is the *apparent* (post-de-chirp)
	// frequency separation between the interferer's peak and ours, which is
	// the quantity cancellation physically depends on; the interferer's
	// chirp-start bin is back-computed from Δf and the boundary-induced
	// shift Δf_i = τ·B/2^SF (Eqn 10).
	k1 := 0
	taus := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	dfs := []float64{0.02, 0.1, 0.25, 0.5}
	demod, err := rx.NewDemod(fcfg)
	if err != nil {
		return Figure{}, err
	}
	for _, df := range dfs {
		s := Series{Name: fmt.Sprintf("dF/B=%.2f", df)}
		for _, tf := range taus {
			tau := int(tf * float64(m))
			// Apparent bin of C_next = kNext − τ/OSR (it starts τ into the
			// window); place it Δf·N bins away from our bin.
			kNext := (k1 + int(df*float64(n)) + tau/fcfg.Chirp.OSR) % n
			kPrev := (kNext + n/2 + 13) % n // far away: only kNext is under test
			// Build r(t): our full symbol + interferer C_prev until τ, then
			// C_next (Eqn 5/6 with N=2).
			win := make([]complex128, m)
			tmp := make([]complex128, m)
			gen.Symbol(win, k1)
			gen.Symbol(tmp, kPrev)
			// C_prev occupies [0,τ): it is the tail of a symbol that began
			// τ−M samples before the window.
			for i := 0; i < tau; i++ {
				win[i] += tmp[(i+m-tau)%m]
			}
			gen.Symbol(tmp, kNext)
			for i := tau; i < m; i++ {
				win[i] += tmp[i-tau]
			}
			src := &rx.MemorySource{Samples: win}
			demod.LoadWindow(src, 0, 0)
			full := append(dsp.Spectrum(nil), demod.FoldedSpectrum()...)
			full.Normalize()

			dmLocal, err := core.NewDemodulator(fcfg, core.Options{})
			if err != nil {
				return Figure{}, err
			}
			// Measure the residual at the interferer's apparent bin in both
			// spectra. Apparent bin of C_next in our window: kNext − τ/OSR.
			app := ((kNext-tau/fcfg.Chirp.OSR)%n + n) % n
			interSpec := intersectOnce(dmLocal, src, fcfg, tau)
			before := full[app]
			after := interSpec[app]
			canc := 0.0
			if after > 0 && before > 0 {
				canc = dsp.DB(before / after)
			}
			if canc < 0 {
				canc = 0
			}
			s.X = append(s.X, tf)
			s.Y = append(s.Y, canc)
		}
		fig.Series = append(fig.Series, s)
	}
	// Closed-form counterpart (the analysis the paper omits for space,
	// derived in core/analytic.go) for the largest Δf, for comparison.
	an := Series{Name: "analytic dF/B=0.50"}
	for _, tf := range taus {
		an.X = append(an.X, tf)
		an.Y = append(an.Y, core.AnalyticCancellation(fcfg.Chirp.SF, tf, 0.5))
	}
	fig.Series = append(fig.Series, an)
	return fig, nil
}

// intersectOnce runs the CIC intersection for a bare window with one
// boundary at τ, returning the normalised intersected spectrum.
func intersectOnce(dm *core.Demodulator, src rx.SampleSource, cfg frame.Config, tau int) dsp.Spectrum {
	// Craft a packet whose symbol 0 is the window at sample 0 and an
	// interferer with a data boundary exactly at τ.
	pre := int64(cfg.PreambleSampleCount())
	pkt := &rx.Packet{Start: -pre, NSymbols: 1}
	m := int64(cfg.Chirp.SamplesPerSymbol())
	q := &rx.Packet{Start: int64(tau) - pre - 20*m, NSymbols: 1000}
	spec := dm.IntersectedSpectrum(src, pkt, 0, []*rx.Packet{q})
	return spec.Normalize()
}

// Heisenberg regenerates Fig 15: the de-chirped spectrum of five
// interfering symbols estimated over progressively shorter windows.
func Heisenberg(cfg Config) (Figure, error) {
	fcfg := cfg.Frame
	gen, err := chirp.NewGenerator(fcfg.Chirp)
	if err != nil {
		return Figure{}, err
	}
	m := fcfg.Chirp.SamplesPerSymbol()
	bins := []int{40, 50, 58, 70, 84}
	win := make([]complex128, m)
	tmp := make([]complex128, m)
	for _, k := range bins {
		gen.Symbol(tmp, k)
		for i := range win {
			win[i] += tmp[i]
		}
	}
	src := &rx.MemorySource{Samples: win}
	d, err := rx.NewDemod(fcfg)
	if err != nil {
		return Figure{}, err
	}
	d.LoadWindow(src, 0, 0)
	fig := Figure{
		ID:     "fig15",
		Title:  "Heisenberg: spectral resolution vs window span (5 symbols)",
		XLabel: "LoRa bin",
		YLabel: "normalised power",
	}
	for _, div := range []int{1, 2, 4, 8} {
		spec := d.SubSymbolSpectrum(nil, 0, m/div).Normalize()
		s := Series{Name: fmt.Sprintf("tau=Ts/%d", div)}
		for b, v := range spec {
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, v)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ResolvablePeaks counts distinct peaks above a fraction of the maximum in
// a spectrum — the quantitative side of Fig 15.
func ResolvablePeaks(spec dsp.Spectrum, frac float64) int {
	return len(dsp.TopPeaks(spec, frac, 0))
}

// PreambleClutter regenerates Figs 19–20: the number of spectral peaks a
// detector must consider per scan window when a new preamble arrives amid
// five ongoing transmissions, for up-chirp vs down-chirp correlation.
func PreambleClutter(cfg Config) (Figure, error) {
	fcfg := cfg.Frame
	mod, err := frame.NewModulator(fcfg)
	if err != nil {
		return Figure{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := fcfg.Chirp.SamplesPerSymbol()
	var ems []channel.Emission
	// Five ongoing transmissions, started early enough that their preambles
	// and SFDs precede the scan region: the scan sees only their data
	// symbols, as in Figs 19–20.
	for i := 0; i < 5; i++ {
		pay := make([]byte, cfg.PayloadLen)
		rng.Read(pay)
		wave, _, err := mod.Modulate(pay)
		if err != nil {
			return Figure{}, err
		}
		ems = append(ems, channel.Emission{
			Start: int64(i*3*m) - int64(14*m),
			Samples: channel.Apply(wave, channel.Impairments{
				Amplitude:  channel.AmplitudeForSNR(25),
				CFOHz:      channel.RandomCFO(rng, sim.CrystalPPM, sim.CarrierHz),
				SampleRate: fcfg.Chirp.SampleRate(),
			}),
		})
	}
	// ...plus one new packet whose preamble we watch arriving.
	newStart := int64(20 * m)
	pay := make([]byte, cfg.PayloadLen)
	rng.Read(pay)
	wave, _, err := mod.Modulate(pay)
	if err != nil {
		return Figure{}, err
	}
	ems = append(ems, channel.Emission{Start: newStart, Samples: channel.Apply(wave, channel.Impairments{
		Amplitude:  channel.AmplitudeForSNR(25),
		CFOHz:      channel.RandomCFO(rng, sim.CrystalPPM, sim.CarrierHz),
		SampleRate: fcfg.Chirp.SampleRate(),
	})})
	src := rx.SourceFromRenderer(channel.NewRenderer(ems, fcfg.Chirp.OSR, cfg.Seed))

	gen, err := chirp.NewGenerator(fcfg.Chirp)
	if err != nil {
		return Figure{}, err
	}
	fft := dsp.MustPlan(m)
	win := make([]complex128, m)
	dd := make([]complex128, m)
	mag := make(dsp.Spectrum, m)
	up := Series{Name: "up-chirp detection (Fig 19)"}
	down := Series{Name: "down-chirp detection (Fig 20)"}
	// Scan across the whole new preamble including the SFD down-chirps.
	for w := 0; w < 26; w++ {
		p := newStart + int64(w*m/2)
		src.Read(win, p)
		count := func(dechirpDown bool) int {
			if dechirpDown {
				gen.DechirpDown(dd, win)
			} else {
				gen.Dechirp(dd, win)
			}
			fft.Forward(dd)
			for i, v := range dd {
				mag[i] = real(v)*real(v) + imag(v)*imag(v)
			}
			meanPow := mag.Energy() / float64(len(mag))
			if meanPow <= 0 {
				return 0
			}
			// Count candidates by the detector's own criterion: coherent
			// tones stand ~2^SF above the mean bin power, while the
			// Fresnel-rippled smear of a mismatched chirp stays within
			// ~13 dB of it.
			return len(dsp.FindPeaks(mag, 32*meanPow, 0))
		}
		up.X = append(up.X, float64(w))
		up.Y = append(up.Y, float64(count(false)))
		down.X = append(down.X, float64(w))
		down.Y = append(down.Y, float64(count(true)))
	}
	return Figure{
		ID:     "fig19_20",
		Title:  "Detection clutter: spectral peaks per scan window (5 ongoing tx)",
		XLabel: "half-symbol window index",
		YLabel: "candidate peaks per window",
		Series: []Series{up, down},
	}, nil
}

// SNRDistribution regenerates Fig 27: the CDF of per-node SNR for each
// deployment.
func SNRDistribution(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig27",
		Title:  "SNR distribution for each deployment",
		XLabel: "SNR dB",
		YLabel: "CDF",
	}
	grid := make([]float64, 0, 56)
	for x := -10.0; x <= 45; x++ {
		grid = append(grid, x)
	}
	for _, dep := range sim.Deployments() {
		nw, err := sim.NewNetwork(cfg.Frame, dep, cfg.Seed)
		if err != nil {
			return Figure{}, err
		}
		s := Series{Name: dep.Name}
		for _, x := range grid {
			c := 0
			for _, node := range nw.Nodes {
				if node.SNRdB <= x {
					c++
				}
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, float64(c)/float64(len(nw.Nodes)))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// DeploymentMaps regenerates the geometry of Figs 22–26: node positions
// per deployment (gateway at the origin).
func DeploymentMaps(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig22_26",
		Title:  "Deployment maps (node positions, meters; gateway at origin)",
		XLabel: "x (m)",
		YLabel: "y (m)",
	}
	for _, dep := range sim.Deployments() {
		nw, err := sim.NewNetwork(cfg.Frame, dep, cfg.Seed)
		if err != nil {
			return Figure{}, err
		}
		s := Series{Name: dep.Name}
		for _, node := range nw.Nodes {
			s.X = append(s.X, node.X)
			s.Y = append(s.Y, node.Y)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// SpectraDemo regenerates Figs 12–14: the de-chirped spectrum of one
// symbol during a six-packet collision under standard LoRa (full window),
// Strawman-CIC, and full CIC.
func SpectraDemo(cfg Config) (Figure, error) {
	fcfg := cfg.Frame
	mod, err := frame.NewModulator(fcfg)
	if err != nil {
		return Figure{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := fcfg.Chirp.SamplesPerSymbol()
	var ems []channel.Emission
	var pkts []*rx.Packet
	var targets [][]uint16
	for i := 0; i < 6; i++ {
		pay := make([]byte, cfg.PayloadLen)
		rng.Read(pay)
		syms, err := phy.Encode(pay, fcfg.PHY)
		if err != nil {
			return Figure{}, err
		}
		wave, _, err := mod.Modulate(pay)
		if err != nil {
			return Figure{}, err
		}
		start := int64(i*2*m) + int64(rng.Intn(m))
		cfo := channel.RandomCFO(rng, sim.CrystalPPM, sim.CarrierHz)
		ems = append(ems, channel.Emission{Start: start, Samples: channel.Apply(wave, channel.Impairments{
			Amplitude:  channel.AmplitudeForSNR(20 + rng.Float64()*10),
			CFOHz:      cfo,
			SampleRate: fcfg.Chirp.SampleRate(),
		})})
		pkts = append(pkts, &rx.Packet{ID: i, Start: start, CFOHz: cfo, NSymbols: len(syms)})
		targets = append(targets, syms)
	}
	src := rx.SourceFromRenderer(channel.NewRenderer(ems, fcfg.Chirp.OSR, cfg.Seed))
	pkt := pkts[0]
	others := pkts[1:]

	d, err := rx.NewDemod(fcfg)
	if err != nil {
		return Figure{}, err
	}
	straw, err := core.NewDemodulator(fcfg, core.Options{Strawman: true})
	if err != nil {
		return Figure{}, err
	}
	full, err := core.NewDemodulator(fcfg, core.Options{})
	if err != nil {
		return Figure{}, err
	}
	// Pick the pedagogical window the paper's Figs 12–14 show: standard
	// LoRa's strongest peak belongs to an interferer, while CIC's
	// intersected spectrum peaks at the true symbol. Fall back to the last
	// candidate window if no symbol exhibits the contrast.
	symIdx := 8
	var std, strawSpec, fullSpec dsp.Spectrum
	for idx := 8; idx < pkt.NSymbols-2; idx++ {
		d.LoadWindow(src, pkt.SymbolStart(fcfg, idx), pkt.CFOHz)
		stdTry := append(dsp.Spectrum(nil), d.FoldedSpectrum()...)
		stdTry.Normalize()
		strawTry := straw.IntersectedSpectrum(src, pkt, idx, others).Normalize()
		fullTry := full.IntersectedSpectrum(src, pkt, idx, others).Normalize()
		symIdx, std, strawSpec, fullSpec = idx, stdTry, strawTry, fullTry
		truth := int(targets[0][idx])
		_, stdAt := stdTry.Max()
		_, cicAt := fullTry.Max()
		if stdAt != truth && cicAt == truth {
			break
		}
	}

	fig := Figure{
		ID:     "fig12_14",
		Title:  fmt.Sprintf("Collision spectra (symbol %d, true bin %d)", symIdx, targets[0][symIdx]),
		XLabel: "LoRa bin",
		YLabel: "normalised power",
	}
	for _, sp := range []struct {
		name string
		s    dsp.Spectrum
	}{
		{"standard LoRa (Fig 12)", std},
		{"Strawman-CIC (Fig 13)", strawSpec},
		{"CIC (Fig 14)", fullSpec},
	} {
		ser := Series{Name: sp.name}
		for b, v := range sp.s {
			ser.X = append(ser.X, float64(b))
			ser.Y = append(ser.Y, v)
		}
		fig.Series = append(fig.Series, ser)
	}
	return fig, nil
}

// Summary computes the paper's headline ratios from throughput figures:
// CIC÷LoRa and CIC÷FTrack at each offered load, for one deployment. It is
// a post-processing view of a throughput figure with those three series.
func Summary(throughput Figure) (Figure, error) {
	var cic, ftrack, lora *Series
	for i := range throughput.Series {
		switch throughput.Series[i].Name {
		case "CIC":
			cic = &throughput.Series[i]
		case "FTrack":
			ftrack = &throughput.Series[i]
		case "LoRa":
			lora = &throughput.Series[i]
		}
	}
	if cic == nil || ftrack == nil || lora == nil {
		return Figure{}, fmt.Errorf("eval: summary needs CIC, FTrack and LoRa series")
	}
	ratio := func(name string, den *Series) Series {
		s := Series{Name: name}
		for i := range cic.X {
			s.X = append(s.X, cic.X[i])
			if i < len(den.Y) && den.Y[i] > 0 {
				s.Y = append(s.Y, cic.Y[i]/den.Y[i])
			} else {
				s.Y = append(s.Y, 0)
			}
		}
		return s
	}
	return Figure{
		ID:     "summary_" + throughput.ID,
		Title:  "Headline ratios — " + throughput.Title,
		XLabel: throughput.XLabel,
		YLabel: "CIC ÷ baseline",
		Series: []Series{ratio("CIC/LoRa", lora), ratio("CIC/FTrack", ftrack)},
	}, nil
}
