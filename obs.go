package cic

import (
	"net/http"

	"cic/internal/obs"
)

// Metrics is a decode-pipeline metrics registry: lock-free counters,
// gauges and duration histograms updated by an instrumented Receiver or
// Gateway. Attach one with WithMetrics and read it with Stats() or serve
// it over HTTP with DebugHandler. See docs/OBSERVABILITY.md for the
// catalogue of metrics and their paper-section meaning.
type Metrics = obs.Registry

// Stats is a point-in-time snapshot of every metric in a registry. It
// marshals to deterministic JSON.
type Stats = obs.Snapshot

// Event is one structured decode-trace record delivered to a WithTracer
// callback: preamble detections, header decodes and packet emissions, with
// per-packet gate verdicts and timings.
type Event = obs.Event

// GateCounts tallies per-packet SED/CFO/power gate verdicts inside an
// Event.
type GateCounts = obs.GateCounts

// EventKind labels a decode-trace Event (EventDetect, EventHeader,
// EventEmit).
type EventKind = obs.EventKind

// Decode-trace event kinds.
const (
	EventDetect = obs.EventDetect
	EventHeader = obs.EventHeader
	EventEmit   = obs.EventEmit
)

// FlightRecorder is a fixed-size lock-free ring of recent structured
// decode/session events, dumpable at /debug/flight for post-mortems.
// A nil recorder drops everything, so it can be threaded unconditionally.
type FlightRecorder = obs.FlightRecorder

// FlightEvent is one flight-recorder entry.
type FlightEvent = obs.FlightEvent

// FlightScope stamps flight events with a session's correlation id and
// station; attach one to a Gateway with WithFlightScope.
type FlightScope = obs.FlightScope

// NewMetrics creates an empty metrics registry to attach via WithMetrics.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewFlightRecorder creates a flight recorder retaining the last `size`
// events (a default capacity when size <= 0).
func NewFlightRecorder(size int) *FlightRecorder { return obs.NewFlightRecorder(size) }

// DebugHandler returns the ops endpoint for an instrumented process:
// /metrics (JSON snapshot or Prometheus text exposition, content
// negotiated) and /debug/pprof. Pass a flight
// recorder to additionally mount /debug/flight. Mount it on a private
// listener (the cmd tools expose it behind -debug-addr).
func DebugHandler(m *Metrics, flight ...*FlightRecorder) http.Handler {
	return obs.DebugMux(m, flight...)
}

// WithMetrics attaches a metrics registry to a Receiver or Gateway. Every
// decode stage updates the registry with lock-free atomics; without this
// option the instrumentation is disabled and the hot path stays
// allocation- and clock-free.
func WithMetrics(m *Metrics) Option {
	return func(o *receiverOptions) { o.metrics = m }
}

// WithTracer attaches a decode-event tracer: fn receives one structured
// Event per packet lifecycle stage (detect, header, emit). fn may be
// invoked from multiple goroutines concurrently and must be safe for
// concurrent use; a streaming Gateway issues emit events in delivery
// (air-time) order.
func WithTracer(fn func(Event)) Option {
	return func(o *receiverOptions) { o.tracer = fn }
}

// WithFlightScope attaches a flight-recorder scope to a Gateway: emit
// verdicts and decode panics (<site>_panic) are recorded into the ring
// under the scope's correlation id. Recording is off the //cic:hotpath
// decode loop (events fire at the emit boundary and on recovery paths)
// and a nil scope is a free no-op.
func WithFlightScope(s *FlightScope) Option {
	return func(o *receiverOptions) { o.flight = s }
}
