package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cic"
	"cic/internal/server"
)

// Defaults for Config zero values.
const (
	// DefaultProbeInterval is the per-backend health-probe period; a
	// probed-down backend is reflected on cluster_backend_healthy within
	// one interval.
	DefaultProbeInterval = time.Second
	// DefaultBreakerBase / DefaultBreakerMax shape the per-backend
	// circuit breaker's jittered exponential backoff.
	DefaultBreakerBase = 100 * time.Millisecond
	DefaultBreakerMax  = 5 * time.Second
	// DefaultRetainCap bounds one routed session's replay retention
	// (samples). Past the cap the oldest chunks are trimmed — failover
	// onto a fresh shard then replays a truncated stream (graceful
	// degradation, counted on cluster_retain_trimmed).
	DefaultRetainCap = int64(4) << 20 // 32 MiB of cf32 per session
	// DefaultCloseTimeout bounds a drain handshake against a backend.
	DefaultCloseTimeout = 60 * time.Second
)

// Config parameterises a Router. Backends is required; everything else
// has usable zero-value defaults.
type Config struct {
	// Backends is the initial gatewayd fleet (AddBackend/RemoveBackend
	// rebalance at runtime).
	Backends []BackendSpec
	// MaxSessions caps concurrently routed sessions, parked included
	// (server.DefaultMaxSessions when 0; negative means unlimited).
	MaxSessions int
	// RetainCap bounds per-session replay retention in samples
	// (DefaultRetainCap when 0; negative means unlimited).
	RetainCap int64
	// IdleTimeout closes a client session idle for this long
	// (server.DefaultIdleTimeout when 0; negative disables).
	IdleTimeout time.Duration
	// ParkTimeout is the client-side resume window: how long a routed
	// resumable session survives its client connection
	// (server.DefaultParkTimeout when 0; negative disables parking).
	ParkTimeout time.Duration
	// ProbeInterval is the backend health-probe period
	// (DefaultProbeInterval when 0).
	ProbeInterval time.Duration
	// BreakerBase / BreakerMax shape the backend circuit breaker
	// (DefaultBreakerBase / DefaultBreakerMax when 0).
	BreakerBase time.Duration
	BreakerMax  time.Duration
	// RetryAfter is the hint carried in the router's own overload
	// rejections (server.DefaultRetryAfter when 0; negative disables).
	RetryAfter time.Duration
	// DialTimeout bounds each upstream TCP connect
	// (server.DefaultDialTimeout when 0).
	DialTimeout time.Duration
	// CloseTimeout bounds a drain handshake against a backend
	// (DefaultCloseTimeout when 0).
	CloseTimeout time.Duration
	// Seed makes the breaker jitter deterministic (0 = fixed default).
	Seed int64
	// Metrics receives the cluster_* families (nil disables).
	Metrics *cic.Metrics
	// Sink receives the merged, deduplicated record stream (a silent
	// fanout when nil).
	Sink *server.Fanout
	// Dial overrides the upstream transport (tests inject partitions
	// here); nil uses a net.Dialer.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Log receives structured routing events, stamped with each
	// session's correlation id (nil = silent).
	Log *slog.Logger
}

// Router is the failure-aware routing frontend: it shards stations onto
// backends by consistent hash, retains each session's stream for replay,
// and fails sessions over onto healthy shards when a backend dies. Its
// clients speak the v2 wire protocol to the same session lifecycle as
// cic-gatewayd's (a server.Server built with NewFrontEnd); the Router
// supplies the upstream leg. Create with New, feed it listeners via
// Serve/ServePub, stop it with Shutdown.
type Router struct {
	cfg   Config
	m     *clusterMetrics
	sink  *server.Fanout
	log   *slog.Logger
	done  chan struct{}
	front *server.Server

	ringVersion atomic.Uint64

	mu        sync.Mutex
	closed    bool
	ring      *ring
	backends  map[string]*backend
	byStation map[string]*session // attached or parked

	intakeWG    sync.WaitGroup
	intakeMu    sync.Mutex
	intakeConns map[net.Conn]struct{}

	// wmMu guards the per-station dedup watermarks (see relay).
	wmMu sync.Mutex
	wms  map[string]*wmState
}

// wmState is one station's record-dedup watermark: the number of
// records already emitted for the station's current router session.
// Replayed backend records with Seq below the watermark are duplicates
// of already-emitted output and are dropped.
type wmState struct {
	sessID  uint64
	next    int64
	retired bool // session closed; kept to suppress late shard stragglers
}

// maxWatermarks bounds retired watermark retention (stations whose
// session closed keep their watermark so straggler records from a
// drained shard stay suppressed; past the cap arbitrary retired
// entries are evicted).
const maxWatermarks = 1 << 16

// New builds a Router from cfg (see Config for defaults). Health
// probers and record intakes start immediately; call Shutdown to stop
// them even if Serve is never called.
func New(cfg Config) *Router {
	if cfg.RetainCap == 0 {
		cfg.RetainCap = DefaultRetainCap
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.BreakerBase == 0 {
		cfg.BreakerBase = DefaultBreakerBase
	}
	if cfg.BreakerMax == 0 {
		cfg.BreakerMax = DefaultBreakerMax
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = server.DefaultRetryAfter
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = server.DefaultDialTimeout
	}
	if cfg.CloseTimeout == 0 {
		cfg.CloseTimeout = DefaultCloseTimeout
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Sink == nil {
		cfg.Sink = server.NewFanout()
	}
	r := &Router{
		cfg:         cfg,
		m:           newClusterMetrics(cfg.Metrics),
		sink:        cfg.Sink,
		log:         cfg.Log,
		done:        make(chan struct{}),
		backends:    map[string]*backend{},
		byStation:   map[string]*session{},
		intakeConns: map[net.Conn]struct{}{},
		wms:         map[string]*wmState{},
	}
	r.front = server.NewFrontEnd(server.Config{
		MaxSessions: cfg.MaxSessions,
		IdleTimeout: cfg.IdleTimeout,
		ParkTimeout: cfg.ParkTimeout,
		RetryAfter:  cfg.RetryAfter,
		Sink:        cfg.Sink,
		Log:         cfg.Log,
	}, server.FrontEnd{
		Name:           "router",
		Open:           r.open,
		SessionsActive: r.m.SessionsActive,
		SessionsParked: r.m.SessionsParked,
		SessionsTotal:  r.m.SessionsTotal,
		ResumesTotal:   r.m.ResumesTotal,
		Rejections:     r.m.Rejected,
	})
	for _, spec := range cfg.Backends {
		r.addBackendLocked(spec)
	}
	r.rebuildRingLocked()
	return r
}

func (r *Router) info(msg string, args ...any) {
	if r.log != nil {
		r.log.Info(msg, args...)
	}
}

func (r *Router) warn(msg string, args ...any) {
	if r.log != nil {
		r.log.Warn(msg, args...)
	}
}

// dial opens one upstream transport.
func (r *Router) dial(ctx context.Context, addr string) (net.Conn, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial(ctx, addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

// addBackendLocked registers a backend and starts its prober and
// intake. Caller holds r.mu (or is New, pre-concurrency).
func (r *Router) addBackendLocked(spec BackendSpec) *backend {
	b := newBackend(spec, r.m, r.cfg.Seed)
	r.backends[b.spec.Name] = b
	r.m.Backends.Set(int64(len(r.backends)))
	go r.probeLoop(b)
	if b.spec.PubAddr != "" {
		r.intakeWG.Add(1)
		go r.runIntake(b)
	}
	return b
}

// rebuildRingLocked recomputes the hash ring from the non-removed
// backends. Caller holds r.mu (or is New).
func (r *Router) rebuildRingLocked() {
	names := make([]string, 0, len(r.backends))
	for name, b := range r.backends {
		if !b.removed() {
			names = append(names, name)
		}
	}
	r.ring = newRing(names)
	r.ringVersion.Add(1)
}

// AddBackend grows the fleet at runtime. Stations whose ring owner
// moves onto the new backend migrate lazily at their next frame: the
// old upstream is abandoned (see maybeMigrate) and the session RESUMEs
// and replays on the new owner.
func (r *Router) AddBackend(spec BackendSpec) error {
	spec = spec.withDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errors.New("cluster: router shut down")
	}
	if _, dup := r.backends[spec.Name]; dup {
		return fmt.Errorf("cluster: backend %q already configured", spec.Name)
	}
	r.addBackendLocked(spec) //cic:lock-ok: only *spawns* the prober/intake goroutines under mu — their blocking selects run outside the lock; registering before the ring swap keeps membership changes atomic
	r.rebuildRingLocked()
	r.info("backend added", "backend", spec.Name, "addr", spec.Addr)
	return nil
}

// RemoveBackend drains a backend out of the fleet: it leaves the ring
// immediately (no new sessions route to it) and existing sessions
// migrate off lazily via the same abandon → RESUME → replay path.
func (r *Router) RemoveBackend(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.backends[name]
	if b == nil {
		return fmt.Errorf("cluster: unknown backend %q", name)
	}
	b.setRemoved()
	r.rebuildRingLocked()
	r.info("backend removed", "backend", name)
	return nil
}

// backendByName resolves a backend under the lock.
func (r *Router) backendByName(name string) *backend {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.backends[name]
}

// currentRing loads the ring under the lock.
func (r *Router) currentRing() *ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring
}

// backendCount reports the non-removed fleet size.
func (r *Router) backendCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, b := range r.backends {
		if !b.removed() {
			n++
		}
	}
	return n
}

// BackendFor reports the ring owner for a station ("" with an empty
// fleet) — topology, not the live routing decision (see
// SessionBackend).
func (r *Router) BackendFor(station string) string {
	return r.currentRing().owner(station)
}

// SessionBackend reports which backend the station's live session is
// currently attached to ("" when the station has no routed session).
func (r *Router) SessionBackend(station string) string {
	r.mu.Lock()
	s := r.byStation[station]
	r.mu.Unlock()
	if s == nil {
		return ""
	}
	return s.backendName()
}

// SessionCount reports attached (client-connected) routed sessions.
func (r *Router) SessionCount() int { return r.front.SessionCount() }

// ParkedCount reports parked routed sessions.
func (r *Router) ParkedCount() int { return r.front.ParkedCount() }

// Sink returns the router's merged-output fanout.
func (r *Router) Sink() *server.Fanout { return r.sink }

// Serve accepts client ingestion connections on ln until Shutdown
// closes it (Serve then returns nil) or Accept fails.
func (r *Router) Serve(ln net.Listener) error { return r.front.Serve(ln) }

// ServePub accepts NDJSON subscriber connections on ln and attaches
// them to the router's merged sink.
func (r *Router) ServePub(ln net.Listener) error { return r.front.ServePub(ln) }

func (r *Router) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// retryAfter is the hint for the router's own overload rejections.
func (r *Router) retryAfter() time.Duration {
	if r.cfg.RetryAfter < 0 {
		return 0
	}
	return r.cfg.RetryAfter
}

// Ready reports whether the router would currently admit a session:
// nil while accepting with session capacity and at least one available
// backend — the /readyz truth source for cic-routerd.
func (r *Router) Ready() error {
	if err := r.front.Ready(); err != nil {
		return err
	}
	r.mu.Lock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.Unlock()
	for _, b := range backends {
		if b.available() {
			return nil
		}
	}
	return errors.New("no healthy backend available")
}

// Shutdown stops the router gracefully: stop accepting, drain every
// routed session's upstream (so backends publish all buffered
// packets), stop probers and intakes — bounded by ctx. The sink is
// left open; close it after Shutdown.
func (r *Router) Shutdown(ctx context.Context) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	if err := r.front.Shutdown(ctx); err != nil {
		return err
	}

	// Give in-flight backend records a moment to reach the intake before
	// tearing the subscriber connections down (bounded by ctx).
	settle := time.NewTimer(200 * time.Millisecond)
	defer settle.Stop()
	select {
	case <-settle.C:
	case <-ctx.Done():
	}
	close(r.done)
	r.intakeMu.Lock()
	for c := range r.intakeConns {
		c.Close()
	}
	r.intakeMu.Unlock()
	r.intakeWG.Wait()
	return nil
}

// removed / setRemoved manage RemoveBackend's draining flag.
func (b *backend) removed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.removedFlag
}

func (b *backend) setRemoved() {
	b.mu.Lock()
	b.removedFlag = true
	b.mu.Unlock()
	b.mHealthy.Set(0)
}
