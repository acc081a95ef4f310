package experiment

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cic/internal/obs"
)

// validConfigJSON is the canonical smoke-scale sweep used across tests.
const validConfigJSON = `{
	"version": 1,
	"name": "test-sweep",
	"kind": "sweep",
	"metric": "prr",
	"channel": {"sf": 8, "bandwidth_hz": 250000, "osr": 2, "cr": "4/5", "sync_word": 52},
	"deployments": [{"base": "D1", "nodes": 4}],
	"rates": [20, 40],
	"duration_s": 0.4,
	"payload_len": 8,
	"receivers": ["CIC", "LoRa"],
	"seeds": {"base": 1, "count": 2}
}`

func mustParse(t *testing.T, src string) *Config {
	t.Helper()
	cfg, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseValid(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	if cfg.Name != "test-sweep" || cfg.Kind != KindSweep || cfg.Metric != MetricPRR {
		t.Fatalf("parsed %+v", cfg)
	}
	if got := cfg.SeedCount(); got != 2 {
		t.Errorf("seed count %d", got)
	}
	fc := cfg.FrameConfig()
	if fc.Chirp.SF != 8 || fc.Chirp.Bandwidth != 250e3 || fc.SyncWord != 0x34 {
		t.Errorf("frame config %+v", fc)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"typo_field":true}`,
		"bad version":       `{"version":2,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"no name":           `{"version":1,"kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad kind":          `{"version":1,"name":"x","kind":"zap","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"no metric":         `{"version":1,"name":"x","kind":"sweep","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad metric":        `{"version":1,"name":"x","kind":"sweep","metric":"vibes","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad figure":        `{"version":1,"name":"x","kind":"figure","figure":"nonesuch","deployments":[{"base":"D1"}]}`,
		"sf low":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"sf":6},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"sf high":           `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"sf":13},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad bw":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"bandwidth_hz":300000},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad osr":           `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"osr":3},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad cr":            `{"version":1,"name":"x","kind":"sweep","metric":"prr","channel":{"cr":"4/9"},"deployments":[{"base":"D1"}],"rates":[10],"duration_s":1}`,
		"bad deployment":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D9"}],"rates":[10],"duration_s":1}`,
		"no deployments":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[],"rates":[10],"duration_s":1}`,
		"negative rate":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[-5],"duration_s":1}`,
		"zero duration":     `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":0}`,
		"bad duty cycle":    `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1","duty_cycle":1.5}],"rates":[10],"duration_s":1}`,
		"bad receiver":      `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"receivers":["WiFi"]}`,
		"payload too large": `{"version":1,"name":"x","kind":"sweep","metric":"prr","deployments":[{"base":"D1"}],"rates":[10],"duration_s":1,"payload_len":300}`,
		"trailing doc":      `{"version":1,"name":"x","kind":"figure","figure":"snr","deployments":[{"base":"D1"}]}{"again":true}`,
		"not json":          `pure garbage`,
	}
	for label, src := range cases {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

// TestCommittedConfigsParse keeps every config under experiments/ loadable:
// a schema change that orphans a committed artifact fails here, not in a
// user's terminal.
func TestCommittedConfigsParse(t *testing.T) {
	paths, err := filepath.Glob("../../experiments/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 12 {
		t.Fatalf("only %d committed configs found", len(paths))
	}
	for _, p := range paths {
		cfg, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if cfg.Kind == KindSweep && len(cfg.Trials()) == 0 {
			t.Errorf("%s: empty trial matrix", p)
		}
	}
}

func TestConfigSHA(t *testing.T) {
	a := mustParse(t, validConfigJSON)
	b := mustParse(t, validConfigJSON)
	if a.SHA() != b.SHA() {
		t.Error("identical configs hash differently")
	}
	c := mustParse(t, strings.Replace(validConfigJSON, `"base": 1`, `"base": 2`, 1))
	if a.SHA() == c.SHA() {
		t.Error("different configs hash identically")
	}
}

func TestTrialMatrix(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	trials := cfg.Trials()
	if len(trials) != 1*2*2 {
		t.Fatalf("%d trials", len(trials))
	}
	keys := map[string]bool{}
	seeds := map[int64]bool{}
	for i, tr := range trials {
		if tr.Index != i {
			t.Errorf("trial %d has index %d", i, tr.Index)
		}
		if keys[tr.Key] {
			t.Errorf("duplicate key %s", tr.Key)
		}
		keys[tr.Key] = true
		if seeds[tr.Seed] {
			t.Errorf("duplicate seed %d", tr.Seed)
		}
		seeds[tr.Seed] = true
	}
	// The matrix is a pure function of the config.
	again := cfg.Trials()
	for i := range trials {
		if trials[i] != again[i] {
			t.Fatal("matrix not reproducible")
		}
	}
}

func TestJournalRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := j.Append(TrialResult{
			ConfigSHA: "sha1", Name: "t", Key: fmt.Sprintf("D1/r10/s%d", i),
			Seed:      int64(i),
			Receivers: map[string]ReceiverScore{"CIC": {Offered: 10, Decoded: 9, PRR: 0.9}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadJournal(path, "sha1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d entries", len(got))
	}
	if got["D1/r10/s1"].Receivers["CIC"].Decoded != 9 {
		t.Error("entry content lost")
	}

	// A torn final line (kill mid-write) is tolerated.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(data, []byte(`{"config_sha":"sha1","key":"D1/r10/s3","receiv`)...)
	tornPath := filepath.Join(dir, "torn.ndjson")
	if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(tornPath, "sha1")
	if err != nil || len(got) != 3 {
		t.Fatalf("torn journal: %d entries, err %v", len(got), err)
	}

	// A malformed line in the middle is corruption, not a torn tail.
	bad := append([]byte("not json at all\n"), data...)
	badPath := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(badPath, "sha1"); err == nil {
		t.Error("mid-journal corruption accepted")
	}

	// A different config identity refuses to resume.
	if _, err := ReadJournal(path, "other-sha"); err == nil {
		t.Error("journal from a different config accepted")
	}

	// Missing journal = empty.
	got, err = ReadJournal(filepath.Join(dir, "missing.ndjson"), "sha1")
	if err != nil || len(got) != 0 {
		t.Errorf("missing journal: %d entries, err %v", len(got), err)
	}

	// Lines from older journals carry "drive" and "reconnects"; they
	// still resume.
	oldPath := filepath.Join(dir, "old.ndjson")
	old := `{"config_sha":"sha1","name":"t","key":"D1/r10/s0","drive":"gatewayd","seed":0,"receivers":{"CIC":{"decoded":9}},"elapsed_ms":3,"reconnects":2}` + "\n"
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(oldPath, "sha1")
	if err != nil || got["D1/r10/s0"].Receivers["CIC"].Decoded != 9 {
		t.Errorf("older journal line: %+v, err %v", got, err)
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := meanCI95([]float64{2, 4, 6})
	if math.Abs(mean-4) > 1e-12 {
		t.Errorf("mean %g", mean)
	}
	// s = 2, n = 3, t(df 2) = 4.303 → half = 4.303·2/√3.
	want := 4.303 * 2 / math.Sqrt(3)
	if math.Abs(half-want) > 1e-9 {
		t.Errorf("half %g want %g", half, want)
	}
	if m, h := meanCI95([]float64{7}); m != 7 || h != 0 {
		t.Errorf("singleton: %g ± %g", m, h)
	}
	if m, h := meanCI95(nil); m != 0 || h != 0 {
		t.Errorf("empty: %g ± %g", m, h)
	}
	// Large n falls back to the normal critical value.
	big := make([]float64, 40)
	for i := range big {
		big[i] = float64(i % 2)
	}
	_, h := meanCI95(big)
	if h <= 0 {
		t.Error("no interval for large n")
	}
}

// TestRunResumeByteIdentical is the harness's core contract: an
// interrupted matrix, resumed from the journal, aggregates to exactly the
// bytes an uninterrupted run produces.
func TestRunResumeByteIdentical(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	ctx := context.Background()
	reg := obs.NewRegistry()

	// Uninterrupted reference run.
	refJournal := filepath.Join(t.TempDir(), "ref.ndjson")
	ref, err := Run(ctx, cfg, RunnerOptions{JournalPath: refJournal, Concurrency: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Executed != 4 || ref.Stopped {
		t.Fatalf("reference run: executed %d, stopped %v", ref.Executed, ref.Stopped)
	}
	refFigs, err := Aggregate(cfg, ref.Results)
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	for _, f := range refFigs {
		if err := f.WriteCSV(&refCSV); err != nil {
			t.Fatal(err)
		}
	}

	// Nonzero decode sanity: the CIC receiver must decode something.
	anyDecoded := false
	for _, tr := range ref.Results {
		if tr.Receivers["CIC"].Decoded > 0 {
			anyDecoded = true
		}
	}
	if !anyDecoded {
		t.Fatal("CIC decoded nothing across the matrix")
	}

	// Interrupted run: stop after 2 trials, then resume.
	resJournal := filepath.Join(t.TempDir(), "res.ndjson")
	first, err := Run(ctx, cfg, RunnerOptions{JournalPath: resJournal, Concurrency: 1, StopAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Stopped || first.Executed != 2 {
		t.Fatalf("first leg: executed %d, stopped %v", first.Executed, first.Stopped)
	}
	if _, err := Aggregate(cfg, first.Results); err == nil {
		t.Fatal("aggregate of an incomplete matrix must fail")
	}
	second, err := Run(ctx, cfg, RunnerOptions{JournalPath: resJournal, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != 2 || second.Executed != 2 {
		t.Fatalf("second leg: executed %d, resumed %d", second.Executed, second.Resumed)
	}
	resFigs, err := Aggregate(cfg, second.Results)
	if err != nil {
		t.Fatal(err)
	}
	var resCSV bytes.Buffer
	for _, f := range resFigs {
		if err := f.WriteCSV(&resCSV); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(refCSV.Bytes(), resCSV.Bytes()) {
		t.Errorf("resumed aggregates differ from uninterrupted run:\n--- ref\n%s\n--- resumed\n%s", refCSV.String(), resCSV.String())
	}

	// CI columns exist (2 seeds) and the metrics registry saw the run.
	if !strings.Contains(refCSV.String(), "ci95") {
		t.Error("aggregate CSV missing ci95 columns")
	}
	snap := reg.Snapshot()
	if snap.Gauges[MetricTrialsPlanned] != 4 {
		t.Errorf("planned gauge %d", snap.Gauges[MetricTrialsPlanned])
	}
	if snap.Counters[MetricPacketsOffered] == 0 {
		t.Error("offered counter never moved")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	cfg := mustParse(t, validConfigJSON)
	ctx := context.Background()
	fig := mustParse(t, `{"version":1,"name":"f","kind":"figure","figure":"snr","deployments":[{"base":"D1"}]}`)
	if _, err := Run(ctx, fig, RunnerOptions{}); err == nil {
		t.Error("figure config accepted by sweep runner")
	}
	if _, err := Aggregate(fig, nil); err == nil {
		t.Error("figure config accepted by aggregator")
	}
	if _, err := Figures(cfg); err == nil {
		t.Error("sweep config accepted by figure dispatch")
	}
}

func TestDetectionSweep(t *testing.T) {
	src := strings.Replace(validConfigJSON, `"metric": "prr"`, `"metric": "detection"`, 1)
	src = strings.Replace(src, `"receivers": ["CIC", "LoRa"],`, ``, 1)
	src = strings.Replace(src, `"rates": [20, 40]`, `"rates": [40]`, 1)
	cfg := mustParse(t, src)
	cfg.Seeds.Count = 1
	res, err := Run(context.Background(), cfg, RunnerOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Results["D1/r40/s0"]
	for _, name := range []string{"CIC", "FTrack", "LoRa"} {
		if _, ok := tr.Receivers[name]; !ok {
			t.Errorf("detection trial missing %s", name)
		}
	}
	if tr.Receivers["CIC"].DetectionRate <= 0 {
		t.Error("CIC detected nothing")
	}
	figs, err := Aggregate(cfg, res.Results)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].YLabel != "detection rate" {
		t.Errorf("aggregate figures %+v", figs)
	}
}

func TestFiguresDispatch(t *testing.T) {
	cfg := mustParse(t, `{
		"version": 1, "name": "snr-fig", "kind": "figure", "figure": "snr",
		"deployments": [{"base":"D1"},{"base":"D2"},{"base":"D3"},{"base":"D4"}],
		"seeds": {"base": 1}
	}`)
	figs, err := Figures(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || len(figs[0].Series) == 0 {
		t.Fatalf("snr figure: %+v", figs)
	}
}

// TestFigureConfigsReproduceResults regenerates the fast committed figure
// configs through Load → Figures → WriteCSV and compares each CSV with
// its committed copy under results/ byte for byte.
func TestFigureConfigsReproduceResults(t *testing.T) {
	for _, name := range []string{"spectra", "heisenberg", "cancellation", "clutter", "maps", "snr", "temporal"} {
		cfg, err := Load(filepath.Join("../../experiments", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		figs, err := Figures(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(figs) == 0 {
			t.Fatalf("%s produced no figures", name)
		}
		for _, f := range figs {
			var got bytes.Buffer
			if err := f.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("../../results", f.ID+".csv"))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s: %s.csv differs from results/%s.csv", name, f.ID, f.ID)
			}
		}
	}
}

// runD1Point runs a one-trial sweep at rate on D1 and returns each
// receiver's score.
func runD1Point(t *testing.T, metric, receivers string, rate, durationS float64) map[string]ReceiverScore {
	t.Helper()
	cfg := mustParse(t, fmt.Sprintf(`{
		"version": 1, "name": "d1-%s", "kind": "sweep", "metric": %q,
		"deployments": [{"base": "D1"}],
		"rates": [%g], "duration_s": %g, "payload_len": 16,
		%s
		"seeds": {"base": 1}
	}`, metric, metric, rate, durationS, receivers))
	res, err := Run(context.Background(), cfg, RunnerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Results[fmt.Sprintf("D1/r%g/s0", rate)].Receivers
}

// TestThroughputComparative is the headline regression: in D1 at high
// load, CIC must beat FTrack and standard LoRa (Fig 28).
func TestThroughputComparative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := runD1Point(t, MetricThroughput, `"receivers": ["CIC", "FTrack", "LoRa"],`, 40, 1.5)
	t.Logf("decoded pkts/s: CIC %.1f, FTrack %.1f, LoRa %.1f", y["CIC"].Throughput, y["FTrack"].Throughput, y["LoRa"].Throughput)
	if y["CIC"].Throughput <= 0 {
		t.Fatal("CIC decoded nothing")
	}
	for _, base := range []string{"LoRa", "FTrack"} {
		if y["CIC"].Throughput <= y[base].Throughput {
			t.Errorf("CIC %.1f <= %s %.1f pkts/s at 40 pkts/s", y["CIC"].Throughput, base, y[base].Throughput)
		}
	}
}

// TestDetectionComparative: CIC's down-chirp scan must find at least as
// many preambles as the locked standard LoRa receiver (Fig 32).
func TestDetectionComparative(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy")
	}
	y := runD1Point(t, MetricDetection, "", 60, 1)
	t.Logf("detection rate: CIC %.2f, LoRa %.2f", y["CIC"].DetectionRate, y["LoRa"].DetectionRate)
	if y["CIC"].DetectionRate < y["LoRa"].DetectionRate {
		t.Errorf("CIC detection %.2f < locked LoRa %.2f", y["CIC"].DetectionRate, y["LoRa"].DetectionRate)
	}
}
