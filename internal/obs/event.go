package obs

import "time"

// EventKind labels a decode-trace event.
type EventKind string

// The decode-trace event kinds, in per-packet lifecycle order.
const (
	// EventDetect: a preamble was detected and the packet entered tracking.
	EventDetect EventKind = "detect"
	// EventHeader: the packet's explicit header block was decoded (or
	// failed its checksum — see HeaderOK).
	EventHeader EventKind = "header"
	// EventEmit: the packet's decode completed and it was delivered to the
	// consumer. Emit events from a streaming Gateway are issued in
	// delivery (air-time) order.
	EventEmit EventKind = "emit"
)

// GateCounts tallies the §5.6–5.7 candidate-gate verdicts accumulated
// while demodulating one packet: how many candidate symbols each gate
// accepted or rejected.
type GateCounts struct {
	SEDAccept   int64 `json:"sed_accept"`
	SEDReject   int64 `json:"sed_reject"`
	CFOAccept   int64 `json:"cfo_accept"`
	CFOReject   int64 `json:"cfo_reject"`
	PowerAccept int64 `json:"power_accept"`
	PowerReject int64 `json:"power_reject"`
}

// Add accumulates other into g.
func (g *GateCounts) Add(other GateCounts) {
	g.SEDAccept += other.SEDAccept
	g.SEDReject += other.SEDReject
	g.CFOAccept += other.CFOAccept
	g.CFOReject += other.CFOReject
	g.PowerAccept += other.PowerAccept
	g.PowerReject += other.PowerReject
}

// Event is one structured decode-trace record. A tracer receives every
// event of every packet flowing through an instrumented receiver or
// gateway; fields beyond Kind/PacketID/Start are populated as the
// lifecycle reaches them. Tracers may be invoked from multiple goroutines
// concurrently (header and emit events of different packets can race);
// implementations must be safe for concurrent use.
type Event struct {
	Kind     EventKind `json:"kind"`
	PacketID int       `json:"packet_id"`
	Seq      int64     `json:"seq"`   // dispatch sequence (gateway only)
	Start    int64     `json:"start"` // first preamble sample (absolute)
	SNRdB    float64   `json:"snr_db"`
	CFOHz    float64   `json:"cfo_hz"`
	Score    int       `json:"score,omitempty"` // preamble verify score (detect)

	HeaderOK bool `json:"header_ok,omitempty"`
	NSymbols int  `json:"n_symbols,omitempty"` // symbols fixed by the header

	CRCOK        bool       `json:"crc_ok,omitempty"`
	PayloadLen   int        `json:"payload_len,omitempty"`
	FECCorrected int        `json:"fec_corrected,omitempty"`
	Gates        GateCounts `json:"gates,omitempty"` // per-packet gate verdicts (emit)

	// Elapsed is the duration of the stage that produced the event
	// (header decode or payload demodulation).
	Elapsed time.Duration `json:"elapsed,omitempty"`
	// Latency is preamble-detect to emit, for emit events.
	Latency time.Duration `json:"latency,omitempty"`
}

// Tracer consumes decode-trace events. Must be safe for concurrent use.
type Tracer func(Event)
