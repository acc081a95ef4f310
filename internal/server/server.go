package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"cic"
	"cic/internal/obs"
)

// Defaults for Config zero values.
const (
	DefaultMaxSessions  = 64
	DefaultMemoryBudget = int64(1) << 30 // 1 GiB of session footprint
	DefaultIdleTimeout  = 60 * time.Second
	// DefaultParkTimeout is how long a resumable session survives its
	// connection: a client that reconnects with RESUME within the window
	// continues where it left off; past it the session drains.
	DefaultParkTimeout = 15 * time.Second
	// DefaultDecodeTimeout bounds one IQ frame's decode admission (see
	// SessionOptions.DecodeTimeout).
	DefaultDecodeTimeout = 30 * time.Second
	// DefaultRetryAfter is the retry hint carried in overload ERROR
	// frames.
	DefaultRetryAfter = time.Second
)

// DefaultWorkers is the per-session decode pool default: sessions run
// concurrently, so each gets a small pool rather than GOMAXPROCS.
func DefaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		return n
	}
	return 2
}

// Config parameterises a Server. The zero value is usable: every field
// falls back to the package defaults and the sink defaults to a fanout
// with no outputs (TCP subscribers can still attach).
type Config struct {
	// MaxSessions caps concurrent ingestion sessions, parked ones
	// included (DefaultMaxSessions when 0; negative means unlimited).
	MaxSessions int
	// MemoryBudget caps the summed EstimateMemoryBytes of admitted
	// sessions (DefaultMemoryBudget when 0; negative means unlimited).
	MemoryBudget int64
	// IdleTimeout closes a session that sends no frame for this long
	// (DefaultIdleTimeout when 0; negative disables the timeout).
	IdleTimeout time.Duration
	// ParkTimeout is the resume window: how long a resumable session
	// stays parked after its connection drops before it is drained
	// (DefaultParkTimeout when 0; negative disables parking, so even
	// RESUME sessions end with their connection).
	ParkTimeout time.Duration
	// DecodeTimeout bounds one IQ frame's decode admission; a session
	// that cannot accept a frame within it is failed rather than left
	// wedging its handler (DefaultDecodeTimeout when 0; negative
	// disables the deadline).
	DecodeTimeout time.Duration
	// RetryAfter is the retry hint carried in overload ERROR frames
	// (DefaultRetryAfter when 0; negative means no hint).
	RetryAfter time.Duration
	// Workers is the per-session decode pool size (DefaultWorkers when
	// 0).
	Workers int
	// Metrics receives both the daemon's server_* metrics and every
	// session gateway's decode metrics; mount it on cic.DebugHandler.
	// Nil disables instrumentation.
	Metrics *cic.Metrics
	// Sink receives decoded-packet records (a silent fanout when nil).
	Sink *Fanout
	// WrapConn, when set, wraps every accepted ingestion connection
	// before the handshake — the transport hook tests use to inject
	// faults (internal/fault.WrapConn) or sever connections.
	// Subscriber connections are not wrapped.
	WrapConn func(net.Conn) net.Conn
	// GatewayOptions are appended to every session Gateway's options —
	// a development hook (e.g. cic.WithDecodeInterceptor for chaos
	// tests); nil for production use.
	GatewayOptions []cic.Option
	// Log receives structured session-lifecycle events (accept, resume,
	// park, shed, panic post-mortems), each stamped with the session's
	// correlation id. Nil is silent.
	Log *slog.Logger
	// Flight, when set, records session transitions and decode incidents
	// into a lock-free ring for post-mortems: mount it at /debug/flight
	// via cic.DebugHandler, and on a handler panic or overload shed the
	// offending trail is also snapshotted into the log.
	Flight *obs.FlightRecorder
	// MaxStationSeries caps each per-station labeled metric family's
	// live label sets (obs.DefaultMaxSeries when 0): beyond the cap the
	// least-recently-active station's series is evicted and counted on
	// obs_labels_evicted, so unbounded station churn cannot OOM the
	// registry.
	MaxStationSeries int
}

// Server accepts ingestion connections and runs the client-facing
// session lifecycle on each: the HELLO/RESUME handshake, admission
// against the session limit, the idle-deadline frame loop with per-frame
// ACKs, CLOSE → drain → OK, parking and resume, and a graceful Shutdown.
// What becomes of a session's IQ frames is its front end's Stream: New
// decodes them (cic-gatewayd, with memory-budget admission, publishing
// decoded packets through the sink); NewFrontEnd plugs in any other front
// end (cic-routerd's upstream leg). Create with New or NewFrontEnd, feed
// it listeners via Serve/ServePub, stop it with Shutdown.
//
// Resilience: a session opened with RESUME survives its connection —
// on abnormal disconnect it is parked for Config.ParkTimeout and a
// reconnecting client reclaims it, replaying from the acknowledged
// sample offset. A decode panic or decode deadline fails only the
// offending session; the daemon keeps serving.
type Server struct {
	cfg  Config
	m    *serverMetrics
	sink *Fanout
	log  *slog.Logger // Config.Log (nil = silent)
	name string       // FrontEnd.Name ("" for cic-gatewayd)
	open func(id uint64, cid string, h Hello) (Stream, error)

	mu        sync.Mutex
	closed    bool
	nextID    uint64
	memInUse  int64
	sessions  map[uint64]*slot // attached to a connection
	parked    map[string]*slot // by station, awaiting RESUME
	listeners map[net.Listener]struct{}
	connWG    sync.WaitGroup
}

// Stream is a front end's side of one client session: what becomes of
// the IQ frames the lifecycle reads. cic-gatewayd's stream decodes them;
// cic-routerd's proxies them to a shard. The lifecycle drives a stream
// from one goroutine at a time.
type Stream interface {
	// Ingest takes one IQ frame body (the stream owns it from here on).
	// An error ends the connection and reaches the client as an ERROR
	// frame; a *ServerError keeps its code and retry hint.
	Ingest(body []byte) error
	// Ingested is the sample count taken so far: the offset acked to
	// resumable clients and returned on RESUME.
	Ingested() int64
	// Drain answers the client's CLOSE: publish everything ingested. An
	// error is sent in place of the OK.
	Drain() error
	// Abandon ends the stream once no connection will carry it again
	// (its connection ended and it did not park, its park expired, or
	// the daemon shut down): it publishes what the front end still owes
	// and releases the stream's resources.
	Abandon()
	// MayPark reports whether the session may park after cause ended its
	// connection (nil: the connection was lost or went silent mid-ACK).
	MayPark(cause error) bool
}

// FrontEnd plugs a front end other than cic-gatewayd's decoder into the
// lifecycle (see NewFrontEnd).
type FrontEnd struct {
	// Name prefixes the lifecycle's rejection reasons ("router session
	// limit reached"), so that a client behind a router can tell the
	// router's shed from a shard's, whose reason the router forwards.
	Name string
	// Open admits a session for a validated handshake: id and cid are
	// the session number and correlation id the lifecycle minted. A
	// *ServerError rejection keeps its code and retry hint.
	Open func(id uint64, cid string, h Hello) (Stream, error)
	// The lifecycle's session gauges and counters, under the front end's
	// own metric names (nil handles are no-ops).
	SessionsActive, SessionsParked          *obs.Gauge
	SessionsTotal, ResumesTotal, Rejections *obs.Counter
}

// slot is one client-facing session as the lifecycle tracks it: attached
// to conn (in sessions) or parked with its expiry timer (in parked).
type slot struct {
	id        uint64
	cid       string
	hello     Hello
	resumable bool
	flight    *obs.FlightScope
	st        Stream // set once Open admits the session

	conn  net.Conn    // attached connection (Shutdown closes it)
	timer *time.Timer // park expiry while parked
}

// attrs is the common identity prefix for session-scoped log events.
func (c *slot) attrs(args ...any) []any {
	return append([]any{"cid", c.cid, "station", c.hello.Station, "session", c.id}, args...)
}

// New builds cic-gatewayd's Server, whose sessions decode their IQ into
// per-session Gateways (see Config for zero-value defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := newServer(cfg, newServerMetrics(cfg.Metrics, cfg.MaxStationSeries))
	s.open = s.openDecode
	return s
}

// NewFrontEnd builds a Server that runs the session lifecycle for fe,
// reporting on fe's metric handles instead of the server_* families.
func NewFrontEnd(cfg Config, fe FrontEnd) *Server {
	cfg = cfg.withDefaults()
	s := newServer(cfg, &serverMetrics{
		SessionsActive:   fe.SessionsActive,
		SessionsParked:   fe.SessionsParked,
		SessionsTotal:    fe.SessionsTotal,
		ResumesTotal:     fe.ResumesTotal,
		SessionsRejected: fe.Rejections,
	})
	s.name = fe.Name
	s.open = fe.Open
	return s
}

// withDefaults fills cfg's zero values with the package defaults.
func (cfg Config) withDefaults() Config {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.MemoryBudget == 0 {
		cfg.MemoryBudget = DefaultMemoryBudget
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.ParkTimeout == 0 {
		cfg.ParkTimeout = DefaultParkTimeout
	}
	if cfg.DecodeTimeout == 0 {
		cfg.DecodeTimeout = DefaultDecodeTimeout
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Workers == 0 {
		cfg.Workers = DefaultWorkers()
	}
	if cfg.Sink == nil {
		cfg.Sink = NewFanout()
	}
	return cfg
}

func newServer(cfg Config, m *serverMetrics) *Server {
	s := &Server{
		cfg:       cfg,
		m:         m,
		sink:      cfg.Sink,
		log:       cfg.Log,
		sessions:  map[uint64]*slot{},
		parked:    map[string]*slot{},
		listeners: map[net.Listener]struct{}{},
	}
	s.sink.setMetrics(s.m)
	return s
}

// info/warn/logError emit structured events (silent without a logger).
func (s *Server) info(msg string, args ...any) {
	if s.log != nil {
		s.log.Info(msg, args...)
	}
}

func (s *Server) warn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}

func (s *Server) logError(msg string, args ...any) {
	if s.log != nil {
		s.log.Error(msg, args...)
	}
}

// dumpFlight snapshots a session's flight-recorder trail into the log —
// the automatic post-mortem on handler panics and overload sheds.
func (s *Server) dumpFlight(msg, cid string, args ...any) {
	if s.log == nil || s.cfg.Flight == nil {
		return
	}
	trail := s.cfg.Flight.SnapshotCID(cid)
	args = append(args, "cid", cid, "trail_events", len(trail), "trail", trail)
	s.log.Error(msg, args...)
}

// Sink returns the server's fanout (for attaching subscribers directly).
func (s *Server) Sink() *Fanout { return s.sink }

// register adds a listener unless the server is shut down.
func (s *Server) register(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[ln] = struct{}{}
	return true
}

// Serve accepts ingestion connections on ln until Shutdown closes it
// (which makes Serve return nil) or Accept fails.
func (s *Server) Serve(ln net.Listener) error {
	if !s.register(ln) {
		ln.Close()
		return errors.New("server: already shut down")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(conn)
		}()
	}
}

// ServePub accepts subscriber connections on ln and attaches each to
// the sink; every record published after attachment is streamed to the
// subscriber as NDJSON. Returns nil once Shutdown closes ln.
func (s *Server) ServePub(ln net.Listener) error {
	if !s.register(ln) {
		ln.Close()
		return errors.New("server: already shut down")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		s.sink.AddSubscriber(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// retryAfter is the hint for overload rejections (0 when disabled).
func (s *Server) retryAfter() time.Duration {
	if s.cfg.RetryAfter < 0 {
		return 0
	}
	return s.cfg.RetryAfter
}

// overload builds a retryable rejection carrying the retry hint.
func (s *Server) overload(reason string) *ServerError {
	return &ServerError{Code: ErrCodeOverload, RetryAfter: s.retryAfter(), Reason: reason}
}

// reason prefixes a rejection reason with the front end's name.
func (s *Server) reason(r string) string {
	if s.name == "" {
		return r
	}
	return s.name + " " + r
}

// admit takes a session slot for a validated handshake and tracks it as
// attached to conn, under the session limit (parked sessions count: they
// are still live).
func (s *Server) admit(h Hello, resumable bool, conn net.Conn) (*slot, *ServerError) {
	cid := MintCID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &ServerError{Code: ErrCodeGeneric, Reason: s.reason("draining")}
	}
	inUse := len(s.sessions) + len(s.parked)
	if s.cfg.MaxSessions > 0 && inUse >= s.cfg.MaxSessions {
		return nil, s.overload(s.reason(fmt.Sprintf("session limit reached (%d active)", inUse)))
	}
	s.nextID++
	c := &slot{
		id:        s.nextID,
		cid:       cid,
		hello:     h,
		resumable: resumable,
		flight:    s.cfg.Flight.Scope(cid, h.Station),
		conn:      conn,
	}
	s.sessions[c.id] = c
	s.m.SessionsActive.Set(int64(len(s.sessions)))
	return c, nil
}

// untrack drops an attached session.
func (s *Server) untrack(c *slot) {
	s.mu.Lock()
	delete(s.sessions, c.id)
	active := len(s.sessions)
	s.mu.Unlock()
	s.m.SessionsActive.Set(int64(active))
}

// reserve applies the memory budget, reserving est bytes on success.
// Callers release via release().
func (s *Server) reserve(est int64) *ServerError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.MemoryBudget > 0 && s.memInUse+est > s.cfg.MemoryBudget {
		return s.overload(fmt.Sprintf("memory budget exceeded (%d in use + %d requested > %d)",
			s.memInUse, est, s.cfg.MemoryBudget))
	}
	s.memInUse += est
	s.m.MemoryInUse.Set(s.memInUse)
	return nil
}

func (s *Server) release(est int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.memInUse -= est
	s.m.MemoryInUse.Set(s.memInUse)
}

// asServerError keeps a *ServerError's code and retry hint; any other
// error becomes a generic one.
func asServerError(err error) *ServerError {
	var se *ServerError
	if errors.As(err, &se) {
		return se
	}
	return &ServerError{Reason: err.Error()}
}

// sendError writes err to the client as an ERROR frame.
func sendError(conn net.Conn, err error) {
	se := asServerError(err)
	_ = WriteFrame(conn, FrameError, EncodeErrorBody(se.Code, se.RetryAfter, se.Reason))
}

// reject answers a handshake with a structured ERROR frame and closes
// the connection.
func (s *Server) reject(conn net.Conn, e *ServerError) {
	s.m.SessionsRejected.Inc()
	if e.Code == ErrCodeOverload {
		s.m.OverloadRejected.Inc()
	}
	sendError(conn, e)
	conn.Close()
}

// badHello rejects a malformed handshake.
func (s *Server) badHello(conn net.Conn, reason string) {
	s.m.HelloErrors.Inc()
	s.reject(conn, &ServerError{Reason: reason})
}

// refuse rejects an admission, leaving an overload shed's trail in the
// flight recorder and the log.
func (s *Server) refuse(conn net.Conn, cid string, h Hello, se *ServerError) {
	remote := conn.RemoteAddr().String()
	if se.Code == ErrCodeOverload {
		s.m.StationSheds.With(h.Station).Inc()
		s.cfg.Flight.Scope(cid, h.Station).RecordErr("shed",
			"admission rejected under overload", se.Reason)
		s.dumpFlight("session shed", cid,
			"station", h.Station, "remote", remote, "reason", se.Reason)
	}
	s.warn("session rejected", "station", h.Station, "remote", remote, "reason", se.Reason)
	s.reject(conn, se)
}

// handleConn runs one ingestion connection end to end: handshake
// (HELLO or RESUME), reclaim or admission, then the frame loop.
func (s *Server) handleConn(conn net.Conn) {
	if s.cfg.WrapConn != nil {
		conn = s.cfg.WrapConn(conn)
	}
	br := bufio.NewReaderSize(conn, 64<<10)

	// Handshake. The HELLO must arrive within the idle timeout.
	if idle := s.cfg.IdleTimeout; idle > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
	}
	typ, body, err := ReadFrame(br)
	if errors.Is(err, io.EOF) {
		// Closed before its first byte: a liveness probe (cic-routerd's
		// backend probe, any TCP health check), not a failed handshake.
		conn.Close()
		return
	}
	if err != nil || (typ != FrameHello && typ != FrameResume) {
		if err == nil {
			err = fmt.Errorf("first frame type 0x%02x, want HELLO or RESUME", typ)
		}
		s.badHello(conn, fmt.Sprintf("bad handshake: %v", err))
		return
	}
	h, err := ParseHello(body)
	if err != nil {
		s.badHello(conn, err.Error())
		return
	}
	resumable := typ == FrameResume

	// RESUME first tries to reclaim a parked session for the station;
	// if none matches it falls through to a fresh resumable session
	// starting at offset 0.
	if resumable {
		if c := s.awaitParked(h, conn); c != nil {
			// Counted before the OK, so a client that sees the OK also
			// sees the resume on the metrics.
			s.m.ResumesTotal.Inc()
			s.m.StationResumes.With(h.Station).Inc()
			off := c.st.Ingested()
			if err := WriteFrame(conn, FrameOK, EncodeOffset(off)); err != nil {
				s.parkOrFinish(c, conn, true, nil)
				return
			}
			c.flight.Record("session_resume", fmt.Sprintf("reclaimed at sample offset %d", off))
			s.info("session resumed", c.attrs("remote", conn.RemoteAddr().String(), "offset", off)...)
			s.serveSession(c, conn, br)
			return
		}
	}

	if err := h.Config().Validate(); err != nil {
		s.badHello(conn, err.Error())
		return
	}
	c, se := s.admit(h, resumable, conn)
	if se != nil {
		s.refuse(conn, MintCID(), h, se)
		return
	}
	if c.st, err = s.open(c.id, c.cid, h); err != nil {
		s.untrack(c)
		s.refuse(conn, c.cid, h, asServerError(err))
		return
	}
	s.m.SessionsTotal.Inc()
	// A plain HELLO gets the empty OK of protocol v1; RESUME gets the
	// starting offset (0 for a fresh session) so the client knows where
	// replay would begin.
	var okBody []byte
	if resumable {
		okBody = EncodeOffset(0)
	}
	if err := WriteFrame(conn, FrameOK, okBody); err != nil {
		s.parkOrFinish(c, conn, resumable, nil)
		return
	}
	c.flight.Record("session_accept", fmt.Sprintf("sf%d from %s", h.SF, conn.RemoteAddr()))
	s.info("session accepted", c.attrs("remote", conn.RemoteAddr().String(),
		"sf", h.SF, "resumable", resumable)...)
	s.serveSession(c, conn, br)
}

// serveSession runs the frame loop for an attached session and tears it
// down: parking it when its connection ended for a reason the stream
// may park on (so RESUME can reclaim it), abandoning it otherwise. A
// panic anywhere in the loop is contained to this session.
func (s *Server) serveSession(c *slot, conn net.Conn, br *bufio.Reader) {
	park, cause, retired := false, error(nil), false
	defer func() {
		if v := recover(); v != nil {
			s.m.PanicsRecovered.Inc()
			c.flight.RecordErr("handler_panic", "connection handler", fmt.Sprint(v))
			s.logError("session handler panic", c.attrs("panic", fmt.Sprint(v))...)
			s.dumpFlight("session post-mortem", c.cid, "trigger", "handler panic")
			park = false
		}
		if retired {
			conn.Close()
			return
		}
		s.parkOrFinish(c, conn, park, cause)
	}()

	idle := s.cfg.IdleTimeout
	for {
		if idle > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(idle))
		}
		typ, body, err := ReadFrame(br)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				s.m.IdleTimeouts.Inc()
				c.flight.Record("idle_timeout", "")
				s.info("session idle timeout", c.attrs()...)
			} else {
				c.flight.RecordErr("disconnect", "", err.Error())
				s.info("session disconnected", c.attrs("err", err.Error())...)
				// Only an abnormal disconnect parks; an idle station has
				// stopped on purpose and re-handshakes when it returns.
				park = c.resumable
			}
			return
		}
		switch typ {
		case FrameIQ:
			if err := c.st.Ingest(body); err != nil {
				sendError(conn, err)
				park, cause = c.resumable, err
				return
			}
			if c.resumable {
				if err := WriteFrame(conn, FrameAck, EncodeOffset(c.st.Ingested())); err != nil {
					s.info("session ack write failed", c.attrs("err", err.Error())...)
					park = true
					return
				}
				s.m.ResumeAcks.Inc()
			}
		case FrameClose:
			// Publish everything, then acknowledge so the client knows
			// its packets are out. A failed drain is never OKed.
			_ = conn.SetReadDeadline(time.Time{})
			if err := c.st.Drain(); err != nil {
				s.warn("session drain failed", c.attrs("err", err.Error())...)
				sendError(conn, err)
				park, cause = c.resumable, err
				return
			}
			// Retire the session before the OK: a client that reconnects
			// on the OK must find it gone (cic-routerd refuses a second
			// session for a station).
			retired = true
			s.retire(c)
			_ = WriteFrame(conn, FrameOK, nil)
			c.flight.Record("session_close", "clean CLOSE")
			s.info("session closed", c.attrs()...)
			return
		default:
			s.warn("unexpected frame type", c.attrs("type", fmt.Sprintf("0x%02x", typ))...)
			sendError(conn, fmt.Errorf("unexpected frame type 0x%02x", typ))
			return
		}
	}
}

// resumeGrace bounds how long a RESUME waits for the station's dying
// connection to park its session: a client that detected the failure
// first can reconnect before the server's reader has seen the
// disconnect, and reclaiming must win that race or the client would be
// handed a fresh session at offset 0 while the old one still holds the
// ingested stream.
const resumeGrace = 3 * time.Second

// awaitParked reclaims the station's parked session, briefly waiting
// out an in-flight park when the previous connection is still tearing
// down (see resumeGrace).
func (s *Server) awaitParked(h Hello, conn net.Conn) *slot {
	if c := s.resumeParked(h, conn); c != nil {
		return c
	}
	deadline := time.Now().Add(resumeGrace)
	for s.hasActiveStation(h) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if c := s.resumeParked(h, conn); c != nil {
			return c
		}
	}
	return nil
}

// hasActiveStation reports whether a resumable session for the station
// is still attached to a connection or being abandoned.
func (s *Server) hasActiveStation(h Hello) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.sessions {
		if c.resumable && c.hello.Station == h.Station {
			return true
		}
	}
	return false
}

// resumeParked reclaims the station's parked session for a new
// connection, returning nil when there is nothing to reclaim (no parked
// session, a different stream configuration, the park timer already
// fired, or the server is draining).
func (s *Server) resumeParked(h Hello, conn net.Conn) *slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	c := s.parked[h.Station]
	if c == nil || c.hello != h {
		return nil
	}
	if !c.timer.Stop() {
		// The expiry fired and is waiting on the lock; let it drain.
		return nil
	}
	delete(s.parked, h.Station)
	c.conn, c.timer = conn, nil
	s.sessions[c.id] = c
	s.m.SessionsParked.Set(int64(len(s.parked)))
	s.m.SessionsActive.Set(int64(len(s.sessions)))
	return c
}

// parkOrFinish tears a session down after its connection ends: parked
// for the resume window when park is set, the stream allows it after
// cause and parking is enabled; abandoned otherwise.
func (s *Server) parkOrFinish(c *slot, conn net.Conn, park bool, cause error) {
	if park && c.st.MayPark(cause) && s.parkSession(c) {
		conn.Close()
		c.flight.Record("session_park", fmt.Sprintf("resume window %v", s.cfg.ParkTimeout))
		s.info("session parked", c.attrs("resume_window", s.cfg.ParkTimeout)...)
		return
	}
	s.retire(c)
	conn.Close()
}

// retire abandons a session no connection will carry again and untracks
// it.
func (s *Server) retire(c *slot) {
	c.st.Abandon()
	s.untrack(c)
}

// parkSession moves a session from the active set to the parked map,
// starting its expiry timer. Fails (→ caller abandons) when parking is
// disabled, the server is draining, or the station already has a parked
// session.
func (s *Server) parkSession(c *slot) bool {
	if s.cfg.ParkTimeout <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	station := c.hello.Station
	if _, dup := s.parked[station]; dup {
		return false
	}
	delete(s.sessions, c.id)
	c.conn = nil
	c.timer = time.AfterFunc(s.cfg.ParkTimeout, func() { s.expirePark(c) })
	s.parked[station] = c
	s.m.SessionsActive.Set(int64(len(s.sessions)))
	s.m.SessionsParked.Set(int64(len(s.parked)))
	return true
}

// expirePark abandons a parked session whose resume window elapsed.
func (s *Server) expirePark(c *slot) {
	s.mu.Lock()
	if s.parked[c.hello.Station] != c {
		s.mu.Unlock()
		return
	}
	delete(s.parked, c.hello.Station)
	// Until it is abandoned the session counts as attached, so a RESUME
	// racing the expiry waits the abandon out (see awaitParked) instead
	// of being admitted beside it.
	s.sessions[c.id] = c
	s.m.SessionsParked.Set(int64(len(s.parked)))
	s.m.SessionsActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
	s.m.ResumesExpired.Inc()
	c.flight.Record("park_expire", "resume window elapsed, draining")
	s.info("session resume window expired", c.attrs()...)
	s.retire(c)
}

// Shutdown drains the daemon gracefully: stop accepting, close every
// attached connection (its handler then abandons the session, which
// publishes what it buffered), abandon the parked sessions, and wait for
// the handlers — bounded by ctx. The sink is left open; close it after
// Shutdown so late records are not lost.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	attached := make([]net.Conn, 0, len(s.sessions))
	for _, c := range s.sessions {
		if c.conn != nil { // nil while a park expiry abandons it
			attached = append(attached, c.conn)
		}
	}
	idle := make([]*slot, 0, len(s.parked))
	for _, c := range s.parked {
		c.timer.Stop()
		idle = append(idle, c)
	}
	s.parked = map[string]*slot{}
	s.mu.Unlock()
	s.m.SessionsParked.Set(0)

	for _, conn := range attached {
		conn.Close()
	}
	var wg sync.WaitGroup
	for _, c := range idle {
		wg.Add(1)
		go func(c *slot) {
			defer wg.Done()
			c.st.Abandon()
		}(c)
	}
	flushed := make(chan struct{})
	go func() {
		wg.Wait()
		s.connWG.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ready reports whether admission control would currently accept a new
// session: nil while the daemon is accepting, an error describing the
// overload (session limit, memory budget) or drain otherwise — the
// /readyz probe's truth source, so load balancers stop routing to a
// shedding instance.
func (s *Server) Ready() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("draining")
	}
	inUse := len(s.sessions) + len(s.parked)
	if s.cfg.MaxSessions > 0 && inUse >= s.cfg.MaxSessions {
		return fmt.Errorf("shedding: session limit reached (%d/%d)", inUse, s.cfg.MaxSessions)
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse >= s.cfg.MemoryBudget {
		return fmt.Errorf("shedding: memory budget exhausted (%d/%d bytes)",
			s.memInUse, s.cfg.MemoryBudget)
	}
	return nil
}

// SessionCount reports the number of live ingestion sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ParkedCount reports the number of parked (resumable, disconnected)
// sessions.
func (s *Server) ParkedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked)
}
