package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cic"
	"cic/internal/obs"
)

// Session is one ingestion stream: a dedicated cic.Gateway plus the
// publisher goroutine that forwards its decoded packets to the sink as
// Records. cic-gatewayd's lifecycle runs one per client session (and
// keeps it across reconnects while the session is parked); tests
// construct Sessions directly.
type Session struct {
	// ID is the server-assigned session number (unique per Server).
	ID uint64
	// Station is the HELLO station identifier.
	Station string
	// CID is the session correlation id minted at HELLO; it survives
	// park/resume, stamping every log line and flight event of the
	// stream's whole life across reconnects.
	CID string

	gw   *cic.Gateway
	sink *Fanout
	m    *serverMetrics
	sf   string // SF label value, from the HELLO

	// log carries the session's structured logger (nil = silent) and
	// flight the recorder scope (nil = disabled); both are stamped with
	// cid/station and are safe to use from any session goroutine.
	log    *slog.Logger
	flight *obs.FlightScope

	// Per-station / per-SF child handles, resolved once at setMetrics so
	// the frame loop and publisher never take a vec lock. Nil (no-op)
	// when metrics are disabled.
	stFrames  *obs.Counter
	stBytes   *obs.Counter
	stPktOK   *obs.Counter
	stPktFail *obs.Counter
	sfPktOK   *obs.Counter
	sfPktFail *obs.Counter

	// ingested counts samples accepted into the Gateway — the resume
	// offset acked to resumable clients. writeTimeout bounds one Write's
	// decode admission (0 = unbounded).
	ingested     atomic.Int64
	writeTimeout time.Duration

	// failErr records the first unrecoverable session fault (a decode
	// panic, a decode deadline); once set, Write refuses and the
	// connection handler fails the session with an ERROR frame.
	failMu  sync.Mutex
	failErr error

	drainOnce sync.Once
	pubDone   chan struct{}
}

// EstimateMemoryBytes predicts a session's accounted footprint for
// admission control without building the Gateway: the ring holds 3× the
// maximum packet and the dispatch path keeps up to 2×workers snapshots
// in flight, 16 bytes per sample.
func EstimateMemoryBytes(cfg cic.Config, workers int) (int64, error) {
	maxPkt, err := cfg.PacketSamples(255)
	if err != nil {
		return 0, err
	}
	return int64(maxPkt) * 16 * int64(3+2*workers), nil
}

// SessionOptions parameterises NewSession beyond the handshake.
type SessionOptions struct {
	// Workers is the decode pool size (≤ 0 selects the gateway default).
	Workers int
	// Metrics aggregates decode metrics across sessions (nil disables).
	Metrics *cic.Metrics
	// DecodeTimeout bounds one Write's decode admission; when exceeded the
	// session fails (and is drained) rather than wedging its connection
	// handler forever (0 = unbounded).
	DecodeTimeout time.Duration
	// GatewayOptions are appended to the per-session Gateway's options
	// (after the defaults, so they may override WithWorkers etc.).
	GatewayOptions []cic.Option
	// CID is the correlation id minted at HELLO ("" lets the session
	// mint its own, so direct test construction still gets one).
	CID string
	// Log receives the session's structured log events (nil = silent);
	// the session derives a child logger stamped with cid/station.
	Log *slog.Logger
	// Flight is the daemon's flight recorder (nil = disabled); the
	// session derives a scope stamped with cid/station and threads it
	// into the Gateway for emit/panic events.
	Flight *obs.FlightRecorder
}

// NewSession validates the handshake's configuration, builds its
// Gateway (decode metrics land on reg when non-nil, aggregating across
// sessions) and starts the publisher. workers ≤ 0 selects the gateway
// default (GOMAXPROCS).
func NewSession(id uint64, h Hello, workers int, reg *cic.Metrics, sink *Fanout) (*Session, error) {
	return NewSessionOpts(id, h, SessionOptions{Workers: workers, Metrics: reg}, sink)
}

// NewSessionOpts is NewSession with the full option set.
func NewSessionOpts(id uint64, h Hello, o SessionOptions, sink *Fanout) (*Session, error) {
	cfg := h.Config()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cid := o.CID
	if cid == "" {
		cid = MintCID()
	}
	s := &Session{
		ID:           id,
		Station:      h.Station,
		CID:          cid,
		sink:         sink,
		m:            newServerMetrics(nil, 0),
		sf:           strconv.Itoa(h.SF),
		flight:       o.Flight.Scope(cid, h.Station),
		writeTimeout: o.DecodeTimeout,
		pubDone:      make(chan struct{}),
	}
	if o.Log != nil {
		s.log = o.Log.With("cid", cid, "station", h.Station, "session", id)
	}
	opts := []cic.Option{cic.WithWorkers(o.Workers)}
	if o.Metrics != nil {
		opts = append(opts, cic.WithMetrics(o.Metrics))
	}
	if s.flight != nil {
		opts = append(opts, cic.WithFlightScope(s.flight))
	}
	opts = append(opts, o.GatewayOptions...)
	gw, err := cic.NewGateway(cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.gw = gw
	go s.publish()
	return s, nil
}

// setMetrics attaches the daemon metric handles and resolves the
// session's per-station / per-SF children once, off the frame loop
// (Server wires this before the first Write; tests may leave the no-op
// set).
func (s *Session) setMetrics(m *serverMetrics) {
	s.m = m
	s.stFrames = m.StationFrames.With(s.Station)
	s.stBytes = m.StationBytes.With(s.Station)
	s.stPktOK = m.StationPackets.With(s.Station, "ok")
	s.stPktFail = m.StationPackets.With(s.Station, "fail")
	s.sfPktOK = m.SFPackets.With(s.sf, "ok")
	s.sfPktFail = m.SFPackets.With(s.sf, "fail")
}

// logError logs a session-scoped error event (silent without a logger).
func (s *Session) logError(msg string, args ...any) {
	if s.log != nil {
		s.log.Error(msg, args...)
	}
}

// fail records the session's first fault and drains the session
// asynchronously: fail is also reached from inside Drain, and from the
// deadline timer while a Write holds the Gateway, where a synchronous
// Drain would deadlock or wedge. Subsequent Writes surface the fault.
func (s *Session) fail(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
	}
	s.failMu.Unlock()
	go func() { _ = s.Drain() }()
}

// Failed returns the session's recorded fault, nil while healthy.
func (s *Session) Failed() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// Write pushes IQ samples into the session's Gateway. After Drain it
// returns cic.ErrGatewayClosed. It may block under decode backpressure —
// that is the mechanism that propagates flow control to the TCP stream —
// but never past the session's write timeout: a decode pipeline that
// cannot admit one IQ frame within the deadline fails this session
// (counted in server_decode_deadlines) instead of wedging its handler.
// A decode panic, which the Gateway returns as cic.ErrGatewayPanic,
// likewise fails this session only.
func (s *Session) Write(iq []complex128) error {
	if ferr := s.Failed(); ferr != nil {
		return fmt.Errorf("session failed: %w", ferr)
	}
	if s.writeTimeout > 0 {
		t := time.AfterFunc(s.writeTimeout, func() {
			s.m.DecodeDeadlines.Inc()
			s.flight.RecordErr("decode_deadline", "one IQ frame's decode admission", s.writeTimeout.String())
			s.logError("decode deadline exceeded", "timeout", s.writeTimeout)
			s.fail(fmt.Errorf("decode deadline exceeded (%v)", s.writeTimeout))
		})
		defer t.Stop()
	}
	if _, err := s.gw.Write(iq); err != nil {
		if errors.Is(err, cic.ErrGatewayPanic) {
			return s.failPanic(err)
		}
		if ferr := s.Failed(); ferr != nil {
			return fmt.Errorf("session failed: %w", ferr)
		}
		return err
	}
	s.ingested.Add(int64(len(iq)))
	return nil
}

// failPanic is the session's one reaction to a decode panic, which the
// Gateway reports from Write or Close as cic.ErrGatewayPanic: it counts
// the panic, records session_failed, logs it and fails this session (and
// only this session — the daemon keeps serving every other connection).
func (s *Session) failPanic(err error) error {
	s.m.PanicsRecovered.Inc()
	s.flight.RecordErr("session_failed", "decode panic", err.Error())
	s.logError("decode panic", "err", err.Error())
	s.fail(err)
	return fmt.Errorf("session failed: %w", err)
}

// Ingested reports the samples accepted into the Gateway so far — the
// offset acked to resumable clients and returned on RESUME.
func (s *Session) Ingested() int64 { return s.ingested.Load() }

// publish forwards every decoded packet to the sink in the Gateway's
// delivery (air-time) order.
func (s *Session) publish() {
	defer close(s.pubDone)
	seq := 0
	for pkt := range s.gw.Packets() {
		s.sink.Publish(Record{
			Station:      s.Station,
			Session:      s.ID,
			Seq:          seq,
			Start:        pkt.Start,
			OK:           pkt.OK,
			SNRdB:        pkt.SNR,
			CFOHz:        pkt.CFO,
			FECCorrected: pkt.FECCorrected,
			Payload:      hex.EncodeToString(pkt.Payload),
		})
		s.m.PacketsPublished.Inc()
		if pkt.OK {
			s.stPktOK.Inc()
			s.sfPktOK.Inc()
		} else {
			s.stPktFail.Inc()
			s.sfPktFail.Inc()
		}
		if s.log != nil {
			s.log.Debug("packet published",
				"seq", seq, "start", pkt.Start, "crc_ok", pkt.OK,
				"payload_len", len(pkt.Payload), "snr_db", pkt.SNR)
		}
		seq++
	}
}

// Drain flushes the Gateway — decoding every packet whose samples are
// fully buffered — and blocks until the publisher has delivered the
// resulting records to the sink. Idempotent and safe to call
// concurrently with Write.
func (s *Session) Drain() error {
	var err error
	s.drainOnce.Do(func() {
		// A decode panic no Write has reported yet (say, in the final
		// flush) fails the session here.
		if err = s.gw.Close(); errors.Is(err, cic.ErrGatewayPanic) && s.Failed() == nil {
			err = s.failPanic(err)
		}
	})
	<-s.pubDone
	return err
}

// openDecode is cic-gatewayd's admission: it reserves the session's
// estimated footprint against the memory budget and builds a decoding
// Session for the stream.
func (s *Server) openDecode(id uint64, cid string, h Hello) (Stream, error) {
	est, err := EstimateMemoryBytes(h.Config(), s.cfg.Workers)
	if err != nil {
		s.m.HelloErrors.Inc()
		return nil, err
	}
	if se := s.reserve(est); se != nil {
		return nil, se
	}
	decodeTimeout := s.cfg.DecodeTimeout
	if decodeTimeout < 0 {
		decodeTimeout = 0
	}
	sess, err := NewSessionOpts(id, h, SessionOptions{
		Workers:        s.cfg.Workers,
		Metrics:        s.cfg.Metrics,
		DecodeTimeout:  decodeTimeout,
		GatewayOptions: s.cfg.GatewayOptions,
		CID:            cid,
		Log:            s.log,
		Flight:         s.cfg.Flight,
	}, s.sink)
	if err != nil {
		s.release(est)
		return nil, err
	}
	sess.setMetrics(s.m)
	s.m.StationSessions.With(h.Station).Inc()
	return &decodeStream{Session: sess, srv: s, est: est}, nil
}

// decodeStream is cic-gatewayd's Stream: IQ frames decode into the
// session's Gateway, and the admission reservation is held until the
// stream is abandoned. A failed session never parks.
type decodeStream struct {
	*Session
	srv   *Server
	est   int64
	iqBuf []complex128
}

func (d *decodeStream) Ingest(body []byte) error {
	iq, err := DecodeIQBody(d.iqBuf[:0], body)
	if err != nil {
		if d.log != nil {
			d.log.Warn("bad IQ frame", "err", err.Error())
		}
		return err
	}
	d.iqBuf = iq
	// ErrGatewayClosed means the session was drained under us; a failed
	// session carries its fault. Either way the session is over.
	if err := d.Write(iq); err != nil {
		return err
	}
	d.m.FramesIngested.Inc()
	d.m.BytesIngested.Add(int64(len(body)))
	d.stFrames.Inc()
	d.stBytes.Add(int64(len(body)))
	return nil
}

func (d *decodeStream) MayPark(cause error) bool { return cause == nil && d.Failed() == nil }

func (d *decodeStream) Abandon() {
	if ferr := d.Failed(); ferr != nil {
		// The session died of a decode incident (decode panic, decode
		// deadline): snapshot its flight trail while the ring still
		// holds it.
		d.srv.dumpFlight("session post-mortem", d.CID, "trigger", ferr.Error())
	}
	if err := d.Drain(); err != nil && d.log != nil {
		d.log.Warn("session drain failed", "err", err.Error())
	}
	d.srv.release(d.est)
}

// MintCID returns a fresh session correlation id (8 random bytes,
// hex): minted at HELLO, carried through accept → decode → publish →
// park → resume in every log line and flight event.
func MintCID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("cid-%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
