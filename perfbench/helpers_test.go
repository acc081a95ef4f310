package main

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"cic/internal/eval"
	"cic/internal/phy"
	"cic/internal/server"
	"cic/internal/sim"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	v, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000: %v", err)
	}
	if v != 990 { // ten samples (991..1000) lie beyond
		t.Fatalf("p99 of 1..1000 = %v, want 990", v)
	}
	if _, err := percentile(seq(999), 0.99); err == nil || !strings.Contains(err.Error(), "9 beyond") {
		t.Fatalf("p99 of 999 samples: err = %v, want a refusal naming 9 beyond", err)
	}
	if v, err := percentile(seq(3), 0.5); err != nil || v != 2 {
		t.Fatalf("median of 3 = %v, %v; want 2", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples did not fail")
	}
}

func TestTailPercentileReportsQuantileUsed(t *testing.T) {
	v, q, err := tailPercentile(seq(1000), 0.99)
	if err != nil || v != 990 || q != 0.99 {
		t.Fatalf("tail p99 of 1000 = %v at q=%v (%v), want 990 at 0.99", v, q, err)
	}
	// 320 samples: the highest rank with ten beyond is 310 (q = 310/320).
	v, q, err = tailPercentile(seq(320), 0.99)
	if err != nil || v != 310 || q != 310.0/320 {
		t.Fatalf("tail p99 of 320 = %v at q=%v (%v), want 310 at %v", v, q, err, 310.0/320)
	}
	if _, err := percentile(seq(320), q); err != nil {
		t.Fatalf("the fallback quantile %v must itself satisfy the rule: %v", q, err)
	}
	// Too few for any tail: the median.
	if v, q, _ := tailPercentile(seq(5), 0.99); v != 3 || q != 0.6 {
		t.Fatalf("tail of 5 = %v at q=%v, want the median 3 at 0.6", v, q)
	}
}

func TestMatchTruth(t *testing.T) {
	truth := []gtPacket{{start: 1000}, {start: 5000}, {start: 5600}}
	for _, c := range []struct {
		start int64
		want  int
	}{
		{1000, 0},
		{1000 + halfSymbol, 0},
		{1000 - halfSymbol, 0},
		{1000 + halfSymbol + 1, -1},
		{3000, -1},
		{5290, 0 + 1}, // 290 from 5000, 310 from 5600: the nearer wins
		{5310, 2},
	} {
		if got := matchTruth(truth, c.start); got != c.want {
			t.Errorf("matchTruth(%d) = %d, want %d", c.start, got, c.want)
		}
	}
	gt := gtPacket{payload: "abcd"}
	rec := func(ok bool, payload string) record {
		var r record
		r.OK, r.Payload = ok, payload
		return r
	}
	if !delivered(rec(true, "abcd"), gt) {
		t.Error("CRC-good record with the sent payload not delivered")
	}
	if delivered(rec(false, "abcd"), gt) || delivered(rec(true, "abce"), gt) {
		t.Error("failed CRC or different payload counted as delivered")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds spaces and a ')'; utime=250, stime=50 ticks.
	stat := "4242 (cic gw) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1000 1000000 500 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3.0 {
		t.Fatalf("cpu = %v s, want 3 (300 ticks)", got)
	}
	if _, err := parseStatCPU([]byte("4242 (short) S 1 2")); err == nil {
		t.Fatal("truncated stat parsed")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat([]byte("12500000 340000 17\n")) // 12.5 ms on the CPU
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.0125 {
		t.Fatalf("cpu = %v s, want 0.0125", got)
	}
	if _, err := parseSchedstat([]byte("12500000\n")); err == nil {
		t.Fatal("truncated schedstat parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcic-gatewayd\nVmPeak:\t  900000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t   10000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 12345*1024 {
		t.Fatalf("VmHWM = %d bytes, want %d", got, 12345*1024)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\nVmRSS:\t1 kB\n")); err == nil {
		t.Fatal("status without VmHWM parsed")
	}
}

func TestLateness(t *testing.T) {
	// 8192-sample frames at 1 Msps are due every 8.192 ms, the first once
	// its last sample exists.
	if d := paceDue(0, 8192, 1e6); d != 8192*time.Microsecond {
		t.Fatalf("frame 0 due at %v, want 8.192ms", d)
	}
	if d := paceDue(9, 8192, 1e6); d != 10*8192*time.Microsecond {
		t.Fatalf("frame 9 due at %v, want 81.92ms", d)
	}
	due := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	sent := []time.Duration{9 * time.Millisecond, 23 * time.Millisecond, 30 * time.Millisecond}
	got := lateness(due, sent)
	want := []float64{0, 3, 0} // an early send is on time, not negative
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lateness = %v, want %v", got, want)
		}
	}
}

func TestCheckPlacement(t *testing.T) {
	if err := checkPlacement(map[string]int64{"b0": 1, "b1": 1}, 2); err != nil {
		t.Fatalf("one station per backend rejected: %v", err)
	}
	if err := checkPlacement(map[string]int64{"b0": 2, "b1": 0}, 2); err == nil {
		t.Fatal("both stations on one backend accepted")
	}
	if err := checkPlacement(map[string]int64{"b0": 1}, 2); err == nil {
		t.Fatal("a missing backend accepted")
	}
	ids, err := routedStations()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("routed stations = %v, want two distinct ids", ids)
	}
}

func TestCompareRecords(t *testing.T) {
	a := recordKey{Start: 1, OK: true, Payload: "aa"}
	b := recordKey{Start: 2, OK: true, Payload: "bb"}
	c := recordKey{Start: 3, OK: false}
	if n := compareRecords([]recordKey{a, b, c}, []recordKey{a, b, c}); n != 0 {
		t.Fatalf("identical sets: %d bad", n)
	}
	if n := compareRecords([]recordKey{a, b, c}, []recordKey{a, c}); n != 1 {
		t.Fatalf("one missing: %d bad, want 1", n)
	}
	b2 := b
	b2.FECCorrected = 1
	if n := compareRecords([]recordKey{a, b, c}, []recordKey{a, b2, c}); n != 2 {
		t.Fatalf("one differing: %d bad, want 2", n)
	}
	got := repeatPeriods([]recordKey{a, b}, 100, 3)
	if len(got) != 6 || got[5].Start != 202 || got[2].Start != 101 {
		t.Fatalf("repeatPeriods = %+v", got)
	}
}

func TestPlan(t *testing.T) {
	for _, w := range workloads {
		period, periods := w.plan(30)
		if period%int64(w.frame) != 0 || w.warm%int64(w.frame) != 0 {
			t.Errorf("%s: period %d or warm-up %d not whole frames of %d", w.name, period, w.warm, w.frame)
		}
		if !w.paced() {
			continue
		}
		// The stream covers the warm-up plus the window, give or take
		// one frame per period.
		window := float64(int64(periods)*period-w.warm) / w.paceSps
		if window < 30 || window > 30+float64(periods*w.frame)/w.paceSps {
			t.Errorf("%s: %d periods of %d samples make a %.3f s window, want 30 s", w.name, periods, period, window)
		}
	}
}

// constSource reads as the constant v everywhere.
type constSource struct{ v complex128 }

func (c constSource) Read(dst []complex128, start int64) {
	for i := range dst {
		dst[i] = c.v
	}
}

func (c constSource) Span() (int64, int64) { return 0, 0 }

func TestLayoutReadsEachSampleFromItsSegment(t *testing.T) {
	l := &layout{span: 100}
	for k := 0; k < 3; k++ {
		l.runs = append(l.runs, &sim.Run{Source: constSource{complex(float64(k), 0)}})
	}
	// Segment k covers [quietSamples+100k, quietSamples+100(k+1)); the
	// lead-in reads from segment 0 and everything past the last segment
	// from segment 2.
	start := int64(quietSamples - 50)
	dst := make([]complex128, 450)
	l.read(dst, start)
	for i, v := range dst {
		x := start + int64(i)
		want := (x - quietSamples) / 100
		if x < quietSamples {
			want = 0
		}
		if want > 2 {
			want = 2
		}
		if real(v) != float64(want) {
			t.Fatalf("sample %d read from segment %v, want %d", x, real(v), want)
		}
	}
}

func TestPeriodKeepsPacketsApart(t *testing.T) {
	w, _ := workloadByName("sparse-routed")
	period, _ := w.plan(30)
	trs, err := genTraces(w, []string{"a"}, 7, period)
	if err != nil {
		t.Fatal(err)
	}
	tr := trs[0]
	if len(tr.truth) == 0 || int64(len(tr.frames)*tr.frame) != period {
		t.Fatalf("%d packets, %d frames of %d for a period of %d", len(tr.truth), len(tr.frames), tr.frame, period)
	}
	fc := eval.DefaultConfig().Frame
	maxPkt := int64(fc.PreambleSampleCount() + phy.MaxSymbolCount(fc.PHY)*fc.Chirp.SamplesPerSymbol())
	for i, gt := range tr.truth {
		// Even a max-length extent must end before the next repetition's
		// first packet can start.
		if gt.start < quietSamples || gt.start+maxPkt > period+quietSamples {
			t.Fatalf("packet %d at %d reaches into the next period", i, gt.start)
		}
	}
}

func TestSegmentsHoldTheOfferedLoad(t *testing.T) {
	dep, _ := sim.DeploymentByName("D1")
	nw, err := sim.NewNetwork(eval.DefaultConfig().Frame, dep, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		run, err := buildSegment(nw, 20, 1.5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Truth) != 30 {
			t.Fatalf("seed %d: %d packets, want 20 pkts/s × 1.5 s = 30", seed, len(run.Truth))
		}
	}
}

// TestRepetitionDecodesAsThePeriod pins the premise of the correctness
// gate: a Gateway fed a period twice publishes the period's records twice,
// the second time shifted by the period.
func TestRepetitionDecodesAsThePeriod(t *testing.T) {
	w, _ := workloadByName("realtime")
	trs, err := genTraces(w, []string{"a"}, 3, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	once, err := decodeInProcess(trs, inprocMode{})
	if err != nil {
		t.Fatal(err)
	}
	twice := *trs[0]
	twice.frames = append(append([][]byte(nil), trs[0].frames...), trs[0].frames...)
	got, err := decodeInProcess([]*trace{&twice}, inprocMode{})
	if err != nil {
		t.Fatal(err)
	}
	want := repeatPeriods(once.stations[0].keys(), trs[0].period, 2)
	if len(want) == 0 {
		t.Fatal("the period decoded to no records")
	}
	if bad := compareRecords(want, got.stations[0].keys()); bad != 0 {
		t.Fatalf("%d records of the repeated stream differ from the period's", bad)
	}
}

// TestSubscriberReadsTrailingExtraRecord pins that a record published
// after the expected ones still reaches the gate, which then fails.
func TestSubscriberReadsTrailingExtraRecord(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	want := []recordKey{{Start: 100, OK: true, Payload: "aa"}, {Start: 900, OK: true, Payload: "bb"}}
	extra := recordKey{Start: 900, OK: true, Payload: "bb"} // a duplicate
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		enc := json.NewEncoder(conn)
		put := func(k recordKey) error {
			return enc.Encode(server.Record{Station: "a", Start: k.Start, OK: k.OK, Payload: k.Payload})
		}
		for _, k := range want {
			if err := put(k); err != nil {
				served <- err
				return
			}
		}
		time.Sleep(50 * time.Millisecond) // well after the expected records
		served <- put(extra)
		time.Sleep(time.Second) // the connection stays open: the subscriber ends it
	}()
	sub, err := subscribe(ln.Addr().String(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sub.finish(len(want), 200*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	got := make([]recordKey, len(recs))
	for i, r := range recs {
		got[i] = r.key()
	}
	if len(got) != len(want)+1 {
		t.Fatalf("subscriber returned %d records, want %d (the extra one included)", len(got), len(want)+1)
	}
	if bad := compareRecords(want, got); bad != 1 {
		t.Fatalf("gate counted %d bad records, want 1 for the extra record", bad)
	}
}
