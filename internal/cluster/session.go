package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cic/internal/server"
)

// session is one routed client session: cic-routerd's Stream in the
// shared ingest lifecycle (internal/server). It retains the stream for
// replay and proxies it upstream to the station's shard. The lifecycle
// drives a session from one goroutine at a time (the connection handler,
// or — after the handler released it — the park-expiry / shutdown
// abandon), so the retention and upstream fields need no lock.
type session struct {
	r       *Router
	id      uint64
	cid     string
	hello   server.Hello
	station string

	// ending is set once the session is abandoned: a new session for
	// the station is then told to retry rather than refused outright.
	ending atomic.Bool

	// Retention: the full session stream as raw IQ frame bodies, each
	// chunk one client frame, chunkStarts its absolute sample offset.
	// Failover replays chunks[retainStart:] onto the replacement shard;
	// past RetainCap the oldest chunks are trimmed (lossy degraded mode).
	chunks      [][]byte
	chunkStarts []int64
	retainStart int64
	ingested    int64
	retained    int64
	trimWarned  bool

	up      *upstream
	ringVer uint64

	// bname mirrors the attached backend name for concurrent readers
	// (Router.SessionBackend).
	bname atomic.Value
}

// upstream is one live connection to a backend shard. The read loop
// owns the inbound side (ACK/OK/ERROR frames); the session's driving
// goroutine owns the outbound side.
type upstream struct {
	b    *backend
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	dead atomic.Bool
	done chan struct{}
	okCh chan struct{}

	mu   sync.Mutex
	rerr error               // transport-level reader exit
	serr *server.ServerError // structured terminal ERROR from the backend
}

// terminalErr reports a structured terminal ERROR the backend sent
// (decode failure, drain) — the session's fate, never a failover
// trigger: replaying the same stream elsewhere would cycle a poison
// packet through the fleet.
func (u *upstream) terminalErr() *server.ServerError {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.serr
}

// readLoop drains backend→router frames until the connection dies.
// Terminates when the peer or teardownUpstream closes the connection;
// teardownUpstream waits on done.
func (u *upstream) readLoop() {
	defer func() {
		u.dead.Store(true)
		close(u.done)
	}()
	for {
		typ, body, err := server.ReadFrame(u.br)
		if err != nil {
			u.mu.Lock()
			u.rerr = err
			u.mu.Unlock()
			return
		}
		switch typ {
		case server.FrameAck:
			// Informational: the router's retention is the replay source
			// of truth (a replacement shard resumes at offset 0, so the
			// backend's ack high-water mark must not trim it).
		case server.FrameOK:
			select {
			case u.okCh <- struct{}{}:
			default:
			}
		case server.FrameError:
			se, perr := server.ParseErrorBody(body)
			if perr != nil {
				se = &server.ServerError{Reason: perr.Error()}
			}
			u.mu.Lock()
			u.serr = se
			u.mu.Unlock()
			return
		default:
			u.mu.Lock()
			u.rerr = fmt.Errorf("unexpected upstream frame type 0x%02x", typ)
			u.mu.Unlock()
			return
		}
	}
}

func (s *session) backendName() string {
	if v, ok := s.bname.Load().(string); ok {
		return v
	}
	return ""
}

// retain appends one IQ frame body to the replay retention, trimming
// the oldest chunks past RetainCap. body is owned by the session from
// here on (ReadFrame allocates a fresh slice per frame).
func (s *session) retain(body []byte) {
	n := int64(len(body) / 8)
	s.chunks = append(s.chunks, body)
	s.chunkStarts = append(s.chunkStarts, s.ingested)
	s.ingested += n
	s.retained += n
	s.r.m.RetainSamples.Add(n)
	cap := s.r.cfg.RetainCap
	if cap <= 0 {
		return
	}
	var trimmed int64
	for s.retained > cap && len(s.chunks) > 1 {
		dn := int64(len(s.chunks[0]) / 8)
		s.chunks = s.chunks[1:]
		s.chunkStarts = s.chunkStarts[1:]
		s.retainStart = s.chunkStarts[0]
		s.retained -= dn
		trimmed += dn
	}
	if trimmed > 0 {
		s.r.m.RetainTrimmed.Add(trimmed)
		s.r.m.RetainSamples.Add(-trimmed)
		// Past the cap every frame trims; say so once per session.
		if !s.trimWarned {
			s.trimWarned = true
			s.r.warn("session retention trimmed (failover now lossy)",
				"cid", s.cid, "station", s.station, "samples", trimmed)
		}
	}
}

// forward proxies one already-retained IQ body upstream. On a dead
// transport it reconnects via ensureUpstream, whose replay covers the
// body — the frame is never written twice to one upstream.
func (s *session) forward(body []byte) *server.ServerError {
	if s.up != nil && !s.up.dead.Load() {
		err := server.WriteFrame(s.up.bw, server.FrameIQ, body)
		if err == nil {
			err = s.up.bw.Flush()
		}
		if err == nil {
			return nil
		}
		s.up.dead.Store(true)
	}
	return s.ensureUpstream()
}

// ensureUpstream makes the session's upstream live: on first use it
// routes the station onto its ring owner; after a transport death it
// fails the session over — pick the next available shard, RESUME,
// replay the retained stream — under the per-backend circuit breakers.
// A non-nil return is the session's client-facing fate: overload
// (retryable, parkable) when no shard can take it, or the backend's own
// terminal error propagated verbatim.
func (s *session) ensureUpstream() *server.ServerError {
	if s.up != nil && !s.up.dead.Load() {
		return nil
	}
	r := s.r
	if s.up != nil {
		if se := s.up.terminalErr(); se != nil {
			s.teardownUpstream()
			return se
		}
		prev := s.up.b
		prev.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		s.teardownUpstream()
		r.m.Failovers.With(prev.spec.Name).Inc()
		r.warn("upstream died, failing over",
			"cid", s.cid, "station", s.station, "backend", prev.spec.Name)
	}
	maxAttempts := 2*r.backendCount() + 3
	var lastReason string
	for attempt := 0; ; attempt++ {
		if r.isClosed() {
			return &server.ServerError{Reason: "router draining"}
		}
		name, ok := r.currentRing().ownerSkipping(s.station, func(n string) bool {
			b := r.backendByName(n)
			return b != nil && b.available()
		})
		if !ok {
			return &server.ServerError{
				Code:       server.ErrCodeOverload,
				RetryAfter: r.cfg.ProbeInterval,
				Reason:     "no healthy backend for station",
			}
		}
		b := r.backendByName(name)
		if b == nil {
			continue // raced a removal
		}
		se, retry := s.connectUpstream(b)
		if se == nil {
			return nil
		}
		if !retry {
			return se
		}
		lastReason = se.Reason
		if attempt+1 >= maxAttempts {
			return &server.ServerError{
				Code:       server.ErrCodeOverload,
				RetryAfter: r.cfg.ProbeInterval,
				Reason:     "no backend accepted the session: " + lastReason,
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// connectUpstream dials one backend, runs the RESUME handshake and
// replays the retained stream from the backend's offset. retry reports
// whether the failure is transport-level (try another shard) as opposed
// to a verdict to propagate (an overload shed, a structured rejection).
func (s *session) connectUpstream(b *backend) (se *server.ServerError, retry bool) {
	r := s.r
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.DialTimeout)
	conn, err := r.dial(ctx, b.spec.Addr)
	cancel()
	if err != nil {
		b.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		return &server.ServerError{Reason: err.Error()}, true
	}
	hb, err := server.EncodeHello(s.hello)
	if err != nil {
		conn.Close()
		return &server.ServerError{Reason: err.Error()}, false
	}
	u := &upstream{
		b:    b,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		done: make(chan struct{}),
		okCh: make(chan struct{}, 1),
	}
	fail := func(err error) (*server.ServerError, bool) {
		conn.Close()
		b.noteFailure(r.cfg.BreakerBase, r.cfg.BreakerMax)
		return &server.ServerError{Reason: err.Error()}, true
	}
	_ = conn.SetDeadline(time.Now().Add(r.cfg.DialTimeout))
	if err := server.WriteFrame(u.bw, server.FrameResume, hb); err != nil {
		return fail(err)
	}
	if err := u.bw.Flush(); err != nil {
		return fail(err)
	}
	typ, body, err := server.ReadFrame(u.br)
	if err != nil {
		return fail(err)
	}
	switch typ {
	case server.FrameOK:
	case server.FrameError:
		conn.Close()
		se, perr := server.ParseErrorBody(body)
		if perr != nil {
			return &server.ServerError{Reason: perr.Error()}, false
		}
		if se.Code == server.ErrCodeOverload {
			// The shard is shedding. Honor it — spilling the station onto
			// a shard that does not own it would split its stream.
			r.m.Sheds.With(b.spec.Name).Inc()
			r.warn("backend shed session",
				"cid", s.cid, "station", s.station, "backend", b.spec.Name,
				"retry_after", se.RetryAfter)
		}
		return se, false
	default:
		return fail(fmt.Errorf("handshake reply frame type 0x%02x", typ))
	}
	off, err := server.ParseOffset(body)
	if err != nil {
		return fail(err)
	}
	_ = conn.SetDeadline(time.Time{})
	b.noteSuccess()
	if err := s.replay(u, off); err != nil {
		return fail(fmt.Errorf("replay: %w", err))
	}
	go u.readLoop()
	s.up = u
	b.addSession()
	s.bname.Store(b.spec.Name)
	r.info("session routed",
		"cid", s.cid, "station", s.station, "backend", b.spec.Name,
		"resume_offset", off, "ingested", s.ingested)
	return nil, false
}

// replay rewrites the retained stream onto a fresh upstream from the
// backend's resume offset, preserving the original frame boundaries.
func (s *session) replay(u *upstream, off int64) error {
	from := off
	if from < s.retainStart {
		// The retention cap trimmed samples this shard needs: replay what
		// survives. The shard's sample indexing shifts by the gap, so
		// failover is no longer byte-identical — counted on
		// cluster_retain_trimmed at trim time.
		s.r.warn("replay truncated by retention cap",
			"cid", s.cid, "station", s.station, "missing", s.retainStart-from)
		from = s.retainStart
	}
	if from >= s.ingested {
		return nil
	}
	var replayed int64
	for i, start := range s.chunkStarts {
		chunk := s.chunks[i]
		if start+int64(len(chunk)/8) <= from {
			continue
		}
		body := chunk
		if start < from {
			body = chunk[(from-start)*8:]
		}
		if err := server.WriteFrame(u.bw, server.FrameIQ, body); err != nil {
			return err
		}
		replayed += int64(len(body) / 8)
	}
	if err := u.bw.Flush(); err != nil {
		return err
	}
	if replayed > 0 {
		s.r.m.ReplayedSamples.Add(replayed)
		s.r.info("session replayed",
			"cid", s.cid, "station", s.station, "backend", u.b.spec.Name,
			"from", from, "samples", replayed)
	}
	return nil
}

// teardownUpstream closes the upstream transport, waits the read loop
// out and releases the backend's session slot.
func (s *session) teardownUpstream() {
	u := s.up
	if u == nil {
		return
	}
	s.up = nil
	u.conn.Close()
	select {
	case <-u.done:
	default:
		// The read loop only runs once the connect handshake finished;
		// conn.Close above forces its exit.
		<-u.done
	}
	u.b.dropSession()
}

// drainUpstream runs the CLOSE handshake so the shard decodes and
// publishes everything it buffered — failing over (replay, CLOSE again)
// if the shard dies mid-drain, bounded by CloseTimeout.
func (s *session) drainUpstream() error {
	r := s.r
	deadline := time.Now().Add(r.cfg.CloseTimeout)
	for {
		if se := s.ensureUpstream(); se != nil {
			// A retryable fleet-wide outage (a breaker flap, every shard
			// mid-probe) must not abort the drain: the samples are
			// retained, so keep trying until the drain deadline.
			if se.Temporary() && time.Now().Before(deadline) {
				wait := se.RetryAfter
				if wait <= 0 {
					wait = 50 * time.Millisecond
				}
				if wait > time.Second {
					wait = time.Second
				}
				time.Sleep(wait)
				continue
			}
			return se
		}
		u := s.up
		err := server.WriteFrame(u.bw, server.FrameClose, nil)
		if err == nil {
			err = u.bw.Flush()
		}
		if err == nil {
			timer := time.NewTimer(time.Until(deadline))
			select {
			case <-u.okCh:
				timer.Stop()
				s.teardownUpstream()
				return nil
			case <-u.done:
				timer.Stop()
				// The backend may have delivered the OK and then closed on
				// us; prefer the OK.
				select {
				case <-u.okCh:
					s.teardownUpstream()
					return nil
				default:
				}
				if se := u.terminalErr(); se != nil && !se.Temporary() {
					s.teardownUpstream()
					return se
				}
			case <-timer.C:
				s.teardownUpstream()
				return fmt.Errorf("drain timed out after %v", r.cfg.CloseTimeout)
			}
		}
		// Transport died before the OK: fail over and drain again (the
		// replay reconstructs the stream on the replacement shard).
		s.teardownUpstream()
		if !time.Now().Before(deadline) {
			return fmt.Errorf("drain timed out after %v", r.cfg.CloseTimeout)
		}
	}
}

// maybeMigrate moves the session onto its new ring owner after a
// membership change. The old upstream is abandoned, not CLOSEd: a CLOSE
// mid-stream would make the old shard decode a truncated trailing
// packet and emit a record the fault-free run never produces. Abandoned,
// the old shard parks the (resumable) upstream session and drains it
// when its park window expires — by then the replacement has republished
// those records and the dedup watermark suppresses the stragglers.
func (s *session) maybeMigrate() {
	if s.up == nil || s.up.dead.Load() {
		return
	}
	cur := s.up.b
	owner := s.r.currentRing().owner(s.station)
	if owner == "" || owner == cur.spec.Name {
		return
	}
	nb := s.r.backendByName(owner)
	if nb == nil || !nb.available() {
		return
	}
	s.teardownUpstream()
	s.r.m.Migrations.Inc()
	s.r.info("session migrating",
		"cid", s.cid, "station", s.station, "from", cur.spec.Name, "to", owner)
}

// ---- The session as a server.Stream -----------------------------------

// open is the router's admission (server.FrontEnd.Open). The router
// enforces one routed session per station — the dedup watermark is
// per-station state, so two concurrent streams for one station would
// corrupt each other's output (a documented cluster-mode constraint).
// The session routes upstream before the client's OK, so a shard's
// handshake verdict (an overload shed in particular) reaches the client.
func (r *Router) open(id uint64, cid string, h server.Hello) (server.Stream, error) {
	r.mu.Lock()
	if prev := r.byStation[h.Station]; prev != nil {
		r.mu.Unlock()
		if prev.ending.Load() {
			return nil, &server.ServerError{
				Code:       server.ErrCodeOverload,
				RetryAfter: r.retryAfter(),
				Reason:     fmt.Sprintf("station %q's previous session is still draining", h.Station),
			}
		}
		return nil, &server.ServerError{
			Reason: fmt.Sprintf("station %q already has a routed session", h.Station)}
	}
	s := &session{r: r, id: id, cid: cid, hello: h, station: h.Station}
	s.ringVer = r.ringVersion.Load()
	r.byStation[h.Station] = s
	r.mu.Unlock()
	r.resetWatermark(s)
	if se := s.ensureUpstream(); se != nil {
		r.warn("session rejected by fleet", "cid", cid, "station", h.Station, "reason", se.Reason)
		s.finish()
		return nil, se
	}
	return s, nil
}

// Ingest retains one client IQ frame and forwards it upstream, first
// moving the session onto its new ring owner after a membership change.
// A retryable fleet verdict (overload, no shard available) lets the
// session park: retention survives, so the client's RESUME continues
// with nothing lost. A terminal backend error does not — replay would
// reproduce it.
func (s *session) Ingest(body []byte) error {
	if len(body) == 0 || len(body)%8 != 0 {
		return &server.ServerError{
			Reason: fmt.Sprintf("IQ body length %d not a positive multiple of 8", len(body))}
	}
	if v := s.r.ringVersion.Load(); v != s.ringVer {
		s.ringVer = v
		s.maybeMigrate()
	}
	s.retain(body)
	if se := s.forward(body); se != nil {
		return se
	}
	return nil
}

func (s *session) Ingested() int64 { return s.ingested }

// Drain answers the client's CLOSE through the shard's CLOSE handshake.
// A retryable failure lets the session park (retention intact) so the
// client's reconnect resumes and re-runs the CLOSE once the fleet
// recovers.
func (s *session) Drain() error { return s.drainUpstream() }

// MayPark: a lost client connection parks the session, and so does a
// retryable fleet verdict.
func (s *session) MayPark(cause error) bool {
	var se *server.ServerError
	return cause == nil || errors.As(cause, &se) && se.Temporary()
}

// Abandon drains the upstream gracefully (so the shard publishes its
// buffered packets) and finishes the session.
func (s *session) Abandon() {
	s.ending.Store(true)
	if s.up != nil {
		if err := s.drainUpstream(); err != nil {
			s.r.warn("session final drain failed",
				"cid", s.cid, "station", s.station, "err", err.Error())
		}
	}
	s.finish()
}

// finish unlinks the session and releases its retention. The upstream,
// if still attached, is abandoned abruptly — callers drain first when
// the shard should publish.
func (s *session) finish() {
	r := s.r
	if s.up != nil {
		s.teardownUpstream()
	}
	r.mu.Lock()
	if r.byStation[s.station] == s {
		delete(r.byStation, s.station)
	}
	r.mu.Unlock()
	if s.retained > 0 {
		r.m.RetainSamples.Add(-s.retained)
	}
	s.chunks, s.chunkStarts, s.retained = nil, nil, 0
	r.retireWatermark(s)
}
