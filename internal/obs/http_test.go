package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsMethodAndCaching: non-GET/HEAD is rejected with 405 + an
// Allow header, and every response carries Cache-Control: no-store.
func TestMetricsMethodAndCaching(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	srv := httptest.NewServer(r)
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}

	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q", cc)
	}

	head, err := srv.Client().Head(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	head.Body.Close()
	if head.StatusCode != 200 {
		t.Errorf("HEAD status = %d", head.StatusCode)
	}
}

// TestMetricsContentNegotiation: default stays JSON; Prometheus
// scrapers (Accept) and ?format= overrides get text exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames_total").Add(3)
	r.CounterVec("station_frames", []string{"station"}, 0).With("a").Inc()
	srv := httptest.NewServer(r)
	defer srv.Close()

	fetch := func(accept, query string) (string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", srv.URL+query, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	// No Accept header (curl default sends */*, Go sends none): JSON.
	body, ct := fetch("", "")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("default Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("default body not JSON: %v", err)
	}
	if _, ct = fetch("*/*", ""); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("*/* Content-Type = %q", ct)
	}

	// Prometheus scraper Accept header: text exposition.
	promAccept := "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"
	body, ct = fetch(promAccept, "")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scraper Content-Type = %q", ct)
	}
	if !strings.Contains(body, "frames_total 3") ||
		!strings.Contains(body, `station_frames{station="a"} 1`) {
		t.Errorf("scraper body missing samples:\n%s", body)
	}

	// Query overrides beat headers both ways.
	if body, _ = fetch("", "?format=prometheus"); !strings.Contains(body, "# TYPE frames_total counter") {
		t.Errorf("?format=prometheus body:\n%s", body)
	}
	if body, _ = fetch(promAccept, "?format=json"); !strings.HasPrefix(body, "{") {
		t.Errorf("?format=json body:\n%s", body)
	}
}

// TestDebugMuxFlight: the flight recorder mounts at /debug/flight.
func TestDebugMuxFlight(t *testing.T) {
	r := NewRegistry()
	fr := NewFlightRecorder(8)
	fr.Scope("cid-1", "st").Record("accept", "")
	srv := httptest.NewServer(DebugMux(r, fr))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"cid-1"`) {
		t.Errorf("/debug/flight missing event: %s", body)
	}
}
