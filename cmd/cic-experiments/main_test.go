package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cic/internal/eval"
)

func TestEmitTableAndCSV(t *testing.T) {
	fig := eval.Figure{
		ID: "figT", Title: "emit test", XLabel: "x", YLabel: "y",
		Series: []eval.Series{{Name: "s", X: []float64{1}, Y: []float64{2}}},
	}
	dir := t.TempDir()
	if err := emit([]eval.Figure{fig}, dir, "table", true); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(dir + "/figT.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("figT")) {
		t.Error("CSV content missing header")
	}
	svgData, err := readFile(dir + "/figT.svg")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(svgData, []byte("<svg")) || !bytes.Contains(svgData, []byte("circle")) {
		t.Error("SVG content malformed")
	}
	// stdout paths (no outdir) must not error either.
	if err := emit([]eval.Figure{fig}, "", "csv", false); err != nil {
		t.Fatal(err)
	}
	if err := emit([]eval.Figure{fig}, "", "table", false); err != nil {
		t.Fatal(err)
	}
}

// TestFigureConfigRejectsSweepFlags: every flag that only a sweep reads
// is an error on a figure config, so it cannot be silently ignored. The
// check runs before the figure does.
func TestFigureConfigRejectsSweepFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig.json")
	fig := `{"version":1,"name":"f","kind":"figure","figure":"snr","deployments":[{"base":"D1"}]}`
	if err := os.WriteFile(path, []byte(fig), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flag string
		opts configOptions
	}{
		{"-journal", configOptions{journal: "j.ndjson"}},
		{"-stop-after", configOptions{stopAfter: 2}},
		{"-trial-concurrency", configOptions{trialConc: 1}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			tc.opts.path = path
			_, err := runConfig(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Errorf("err = %v, want %s rejected by name", err, tc.flag)
			}
		})
	}
}

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
