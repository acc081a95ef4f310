package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
)

// ServeHTTP serves the registry snapshot, making *Registry an
// http.Handler (mounted at /metrics by DebugMux). The encoding is
// content-negotiated:
//
//   - Prometheus text exposition (format 0.0.4) when the Accept header
//     asks for application/openmetrics-text or text/plain — i.e. any
//     standard Prometheus scraper;
//   - the bespoke JSON snapshot otherwise (curl with no Accept header,
//     browsers, and every pre-existing consumer);
//   - `?format=prometheus` / `?format=json` overrides the header.
//
// Non-GET/HEAD methods are rejected with 405, and responses are marked
// Cache-Control: no-store — a cached scrape is worse than none.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	prom := wantsPrometheus(req)
	if prom {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	if req.Method == http.MethodHead {
		return
	}
	s := r.Snapshot()
	if prom {
		_ = s.WritePrometheus(w)
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s)
}

// wantsPrometheus decides the /metrics encoding: explicit ?format=
// wins, then the Accept header; the default stays JSON for backward
// compatibility with the pre-exposition consumers.
func wantsPrometheus(req *http.Request) bool {
	switch strings.ToLower(req.URL.Query().Get("format")) {
	case "prometheus", "prom", "text", "openmetrics":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch strings.ToLower(mt) {
		case "application/openmetrics-text", "text/plain":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

// DebugMux returns the ops endpoint for an instrumented process:
//
//	/metrics          registry snapshot (JSON or Prometheus text, see
//	                  Registry.ServeHTTP)
//	/debug/flight     flight-recorder dump, when a recorder is passed
//	/debug/pprof/...  net/http/pprof profiles
//
// Mount it on a private port (the cmd tools' -debug-addr flag).
func DebugMux(r *Registry, flight ...*FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r)
	for _, f := range flight {
		if f != nil {
			mux.Handle("/debug/flight", f)
			break
		}
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
