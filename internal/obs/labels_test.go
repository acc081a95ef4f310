package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestCounterVecBasics: label sets are independent series, re-With
// returns the same child, snapshot is sorted by label values.
func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("req_total", []string{"station", "sf"}, 0)
	vec.With("st-b", "7").Add(2)
	vec.With("st-a", "8").Inc()
	if c := vec.With("st-b", "7"); c.Value() != 2 {
		t.Errorf("re-With returned a different child: %d", c.Value())
	}
	if vec.Len() != 2 {
		t.Errorf("Len = %d, want 2", vec.Len())
	}
	if again := r.CounterVec("req_total", []string{"station", "sf"}, 0); again != vec {
		t.Error("re-registering the family returned a different vec")
	}

	vs := r.Snapshot().CounterVecs["req_total"]
	if len(vs.Labels) != 2 || vs.Labels[0] != "station" || vs.Labels[1] != "sf" {
		t.Errorf("labels = %v", vs.Labels)
	}
	if len(vs.Series) != 2 {
		t.Fatalf("series = %v", vs.Series)
	}
	if vs.Series[0].Values[0] != "st-a" || vs.Series[0].Value != 1 {
		t.Errorf("series[0] = %+v (want st-a first: sorted)", vs.Series[0])
	}
	if vs.Series[1].Values[0] != "st-b" || vs.Series[1].Value != 2 {
		t.Errorf("series[1] = %+v", vs.Series[1])
	}
}

// TestVecArityMismatch: a With call with the wrong number of values
// yields the nil no-op child instead of corrupting the index.
func TestVecArityMismatch(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c", []string{"a", "b"}, 0)
	gv := r.GaugeVec("g", []string{"a"}, 0)
	if cv.With("only-one") != nil {
		t.Error("CounterVec.With with wrong arity should return nil")
	}
	if gv.With("x", "y") != nil {
		t.Error("GaugeVec.With with wrong arity should return nil")
	}
	if cv.Len() != 0 || gv.Len() != 0 {
		t.Error("arity-mismatched With must not create series")
	}
}

// TestVecNilSafety: nil vecs hand out nil children and report empty.
func TestVecNilSafety(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	cv.With("x").Inc()
	gv.With("x").Set(1)
	if cv.Len() != 0 || gv.Len() != 0 {
		t.Error("nil vec Len != 0")
	}
	var r *Registry
	if r.CounterVec("c", nil, 0) != nil || r.GaugeVec("g", nil, 0) != nil {
		t.Error("nil registry returned non-nil vecs")
	}
	var fr *FlightRecorder
	fr.Record(FlightEvent{Kind: "x"})
	if fr.Snapshot() != nil || fr.Len() != 0 || fr.Cap() != 0 {
		t.Error("nil recorder retained events")
	}
	scope := fr.Scope("cid", "st")
	if scope != nil {
		t.Error("nil recorder returned non-nil scope")
	}
	scope.Record("k", "d")
	scope.RecordErr("k", "d", "e")
	scope.RecordEvent(FlightEvent{})
	if scope.CID() != "" {
		t.Error("nil scope CID != \"\"")
	}
}

// TestVecCardinalityBound churns 10k stations through a capped family
// and proves the registry stays bounded: live series never exceed the
// cap, the overflow is counted on obs_labels_evicted, and the snapshot
// stays well-formed.
func TestVecCardinalityBound(t *testing.T) {
	const cap = 64
	const stations = 10000
	r := NewRegistry()
	vec := r.CounterVec("station_frames", []string{"station"}, cap)
	for i := 0; i < stations; i++ {
		vec.With(fmt.Sprintf("station-%05d", i)).Inc()
	}
	if got := vec.Len(); got != cap {
		t.Errorf("live series = %d, want cap %d", got, cap)
	}
	if got := r.Counter(MetricLabelsEvicted).Value(); got != stations-cap {
		t.Errorf("%s = %d, want %d", MetricLabelsEvicted, got, stations-cap)
	}
	vs := r.Snapshot().CounterVecs["station_frames"]
	if len(vs.Series) != cap {
		t.Errorf("snapshot series = %d, want %d", len(vs.Series), cap)
	}
	// The survivors are the most recently used stations.
	if first := vs.Series[0].Values[0]; first != fmt.Sprintf("station-%05d", stations-cap) {
		t.Errorf("oldest survivor = %q", first)
	}
}

// TestVecLRURecency: touching an old series protects it from eviction.
func TestVecLRURecency(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("depth", []string{"station"}, 2)
	vec.With("a").Set(1)
	vec.With("b").Set(2)
	vec.With("a").Set(3) // bump a's recency: b is now LRU
	vec.With("c").Set(4) // evicts b
	vs := r.Snapshot().GaugeVecs["depth"]
	if len(vs.Series) != 2 || vs.Series[0].Values[0] != "a" || vs.Series[1].Values[0] != "c" {
		t.Errorf("survivors = %+v, want a and c", vs.Series)
	}
	if got := r.Counter(MetricLabelsEvicted).Value(); got != 1 {
		t.Errorf("evicted = %d, want 1", got)
	}
	// An evicted label set returning starts a fresh series at zero.
	if v := vec.With("b").Value(); v != 0 {
		t.Errorf("returning evicted series carried value %d", v)
	}
}

// TestVecConcurrentChurn hammers a small-capped family from many
// goroutines (run under -race by make ci): no lost counts on surviving
// series' handles, Len never exceeds the cap.
func TestVecConcurrentChurn(t *testing.T) {
	r := NewRegistry()
	const cap = 8
	vec := r.CounterVec("churn", []string{"station"}, cap)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				vec.With(fmt.Sprintf("st-%d", (g*500+i)%32)).Inc()
				if i%50 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := vec.Len(); got > cap {
		t.Errorf("Len = %d exceeded cap %d", got, cap)
	}
}
