package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkGatewayStream/workers=4-8  5  1234.5 ns/op  7.5 MB/s  12 B/op  3 allocs/op"
	res, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("valid line rejected")
	}
	if res.Name != "BenchmarkGatewayStream/workers=4" {
		t.Errorf("name %q", res.Name)
	}
	if res.Iterations != 5 || res.NsPerOp != 1234.5 || res.MBPerSec != 7.5 ||
		res.BytesPerOp != 12 || res.AllocsPerOp != 3 {
		t.Errorf("fields: %+v", res)
	}
	for _, bad := range []string{
		"",
		"PASS",
		"ok  \tcic\t1.2s",
		"BenchmarkX-8 notanumber 1 ns/op",
		"BenchmarkX-8 5 xyz ns/op",
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

// FuzzParseBenchLine hardens the benchmark-output parser against
// arbitrary text: `go test -bench` output is unstructured, and a daemon
// log or a partial pipe write can hand it any byte sequence. The parser
// must stay total (no panics), deterministic, and only accept lines
// that actually carry a ns/op measurement.
func FuzzParseBenchLine(f *testing.F) {
	f.Add("BenchmarkFFT1024-8  100  50.1 ns/op")
	f.Add("BenchmarkGatewayStream/workers=1-8 3 2.5 ns/op 1.1 MB/s 0 B/op 0 allocs/op")
	f.Add("BenchmarkOverhead-4 10 9 ns/op 1.5 overhead_% 0.5 decoded/op")
	f.Add("BenchmarkX- 1 2 ns/op")
	f.Add("goos: linux")
	f.Add("  \t  ")
	f.Add("BenchmarkY-8 9223372036854775807 1 ns/op")
	f.Fuzz(func(t *testing.T, line string) {
		res, ok := parseBenchLine(line)
		res2, ok2 := parseBenchLine(line)
		if ok != ok2 || res != res2 {
			t.Fatalf("non-deterministic parse of %q", line)
		}
		if !ok {
			return
		}
		if res.NsPerOp == 0 {
			t.Errorf("accepted %q without ns/op", line)
		}
		if res.Name == "" {
			t.Errorf("accepted %q with empty name", line)
		}
		if strings.ContainsAny(res.Name, " \t\n") {
			t.Errorf("name %q contains whitespace (line %q)", res.Name, line)
		}
	})
}

// TestFoldRuns: repeated runs of one benchmark fold into one row holding
// each metric's median plus the run count and the ns/op range; a single
// run passes through unchanged, and rows keep first-appearance order.
func TestFoldRuns(t *testing.T) {
	var runs []result
	for _, line := range []string{
		"BenchmarkA-2 10 300 ns/op 5 B/op 7 allocs/op",
		"BenchmarkB-2 10 50 ns/op",
		"BenchmarkA-2 10 100 ns/op 5 B/op 9 allocs/op",
		"BenchmarkA-2 10 200 ns/op 5 B/op 8 allocs/op",
		"BenchmarkA-2 10 900 ns/op 5 B/op 8 allocs/op",
	} {
		r, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("rejected %q", line)
		}
		runs = append(runs, r)
	}
	got := foldRuns(runs)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB" {
		t.Fatalf("rows %+v", got)
	}
	// Four runs: the lower middle of 100/200/300/900 and of 7/8/8/9.
	want := result{Name: "BenchmarkA", Iterations: 10, NsPerOp: 200, Runs: 4,
		NsPerOpMin: 100, NsPerOpMax: 900, AllocsPerOp: 8, BytesPerOp: 5}
	if got[0] != want {
		t.Errorf("folded %+v, want %+v", got[0], want)
	}
	if got[1] != runs[1] {
		t.Errorf("single run changed: %+v, want %+v", got[1], runs[1])
	}
}
