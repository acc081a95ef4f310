package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentHammer drives every primitive from many goroutines at once
// (run under -race by `make ci`) and checks the final totals are exact —
// the lock-free paths must not lose updates.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("hits")
			gauge := r.Gauge("depth")
			h := r.Histogram("lat", DurationBuckets)
			for i := 0; i < perG; i++ {
				c.Inc()
				gauge.Add(1)
				gauge.Add(-1)
				h.Observe(0.25) // lands in a fixed bucket; sum stays exact
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("hits").Value(); got != goroutines*perG {
		t.Errorf("counter lost updates: got %d want %d", got, goroutines*perG)
	}
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Errorf("gauge drifted: got %d want 0", got)
	}
	h := r.Snapshot().Histograms["lat"]
	if h.Count != goroutines*perG {
		t.Errorf("histogram count: got %d want %d", h.Count, goroutines*perG)
	}
	if want := 0.25 * goroutines * perG; math.Abs(h.Sum-want) > 1e-6 {
		t.Errorf("histogram sum: got %g want %g", h.Sum, want)
	}
	// 0.25 s falls in the (0.1, 0.5] bucket of DurationBuckets.
	idx := 0
	for idx < len(DurationBuckets) && 0.25 > DurationBuckets[idx] {
		idx++
	}
	if got := h.Buckets[idx]; got != goroutines*perG {
		t.Errorf("bucket %d: got %d want %d", idx, got, goroutines*perG)
	}
}

// TestSnapshotDeterminism: two snapshots of the same state are deeply equal
// and marshal to byte-identical JSON (sorted map keys).
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(-3)
	r.Histogram("h", SizeBuckets).Observe(3)
	r.Histogram("h", SizeBuckets).Observe(40) // overflow bucket

	s1, s2 := r.Snapshot(), r.Snapshot()
	s1.UptimeSeconds, s2.UptimeSeconds = 0, 0 // the only field allowed to differ
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%#v\n%#v", s1, s2)
	}
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("JSON encodings differ:\n%s\n%s", j1, j2)
	}

	h := s1.Histograms["h"]
	if h.Count != 2 || h.Buckets[len(h.Buckets)-1] != 1 {
		t.Errorf("histogram snapshot wrong: %+v", h)
	}
}

// TestNilSafety: every operation on nil handles and a nil registry is a
// no-op, and Start on a nil histogram never reads the clock.
func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Set(2)
	g.Add(-1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if t0 := h.Start(); !t0.IsZero() {
		t.Error("nil Histogram.Start read the clock")
	}
	h.Since(time.Time{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil handles reported non-zero values")
	}

	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", SizeBuckets) != nil {
		t.Error("nil registry returned non-nil handles")
	}
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Error("nil-registry snapshot has nil maps")
	}
	if Nop() == nil || Nop().CRCPass != nil {
		t.Error("Nop() must be a non-nil struct of nil handles")
	}
	if m := NewDecodeMetrics(nil); m != Nop() {
		t.Error("NewDecodeMetrics(nil) should return the shared no-op set")
	}
}

// TestQuantile sanity-checks the interpolated quantile estimator.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all mass in the (1,2] bucket
	}
	snap := r.Snapshot().Histograms["q"]
	if q := snap.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("p50 outside owning bucket: %g", q)
	}
	if q := snap.Quantile(1); q < 1 || q > 2 {
		t.Errorf("p100 outside owning bucket: %g", q)
	}
	h.Observe(100)
	snap = r.Snapshot().Histograms["q"]
	if q := snap.Quantile(1); q != 8 {
		t.Errorf("overflow quantile should clamp to last bound: %g", q)
	}
}

// TestDebugMux exercises /metrics and /debug/pprof through the
// mux the cmd tools mount behind -debug-addr.
func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricPacketsEmitted).Add(7)
	mux := DebugMux(r)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if snap.Counters[MetricPacketsEmitted] != 7 {
		t.Errorf("/metrics counters = %v", snap.Counters)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars: status %d, want 404", resp.StatusCode)
	}
}
