package main

import (
	"bytes"
	"os"
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

func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
