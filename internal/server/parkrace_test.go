package server_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cic"
	"cic/internal/server"
)

// resumeRetry dials and RESUMEs, retrying temporary (overload)
// rejections — exactly what a well-behaved client does while the
// server is still draining the previous incarnation of the session.
func resumeRetry(t *testing.T, addr, station string, cfg cic.Config) (*server.Client, int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		off, err := c.Resume(station, cfg)
		if err == nil {
			return c, off
		}
		c.Abort()
		var se *server.ServerError
		if errors.As(err, &se) && se.Temporary() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("resume %s: %v", station, err)
	}
}

// TestParkResumeWithinGrace pins the deterministic half of the
// park/resume race on both front ends: a RESUME that lands while the
// previous connection is still dying (before parkSession has run) must
// be held by the resume grace window, reclaim the parked state, and
// continue at the acknowledged offset. MaxSessions=1 makes any
// admission-slot double-count fail loudly: the handover must not need a
// second slot.
func TestParkResumeWithinGrace(t *testing.T) {
	cfg := testConfig()
	const station = "grace"
	iq, _ := collisionTrace(t, cfg, 41, station)
	traces := map[string][]complex128{station: iq}

	baseSrv, baseAddr, baseSink, _ := chaosServer(t, server.Config{})
	runStations(t, traces, func(st string) chaosClient {
		return helloClient(t, baseAddr, st, cfg)
	})
	baseline := shutdownAndCollect(t, baseSrv, baseSink)
	if len(baseline[station]) == 0 {
		t.Fatal("baseline produced no records")
	}

	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			run := fe.start(t, server.Config{
				ParkTimeout: 30 * time.Second,
				MaxSessions: 1,
			})
			first := server.NewReconnectingClient(server.ReconnectOptions{
				Station:     station,
				Config:      cfg,
				Addr:        run.addr,
				MaxAttempts: 5,
				BaseBackoff: 10 * time.Millisecond,
			})
			if _, err := first.Connect(); err != nil {
				t.Fatal(err)
			}
			half := (len(iq) / 2 / chaosChunk) * chaosChunk
			for off := 0; off < half; off += chaosChunk {
				end := off + chaosChunk
				if end > half {
					end = half
				}
				if err := first.WriteIQ(iq[off:end]); err != nil {
					t.Fatalf("first leg write: %v", err)
				}
			}
			waitFor(t, "first leg acknowledged", func() bool {
				return first.Acked() == int64(half)
			})
			first.Abort()

			// No settling sleep: this RESUME races the park itself. The
			// grace window must absorb the race; a lost race would surface
			// as a station conflict, an overload (slot counted twice), or
			// offset 0.
			c2, off := resumeRetry(t, run.addr, station, cfg)
			if off != int64(half) {
				t.Fatalf("resume offset = %d, want %d", off, half)
			}
			for o := half; o < len(iq); o += chaosChunk {
				end := o + chaosChunk
				if end > len(iq) {
					end = len(iq)
				}
				if err := c2.WriteIQ(iq[o:end]); err != nil {
					t.Fatalf("second leg write: %v", err)
				}
			}
			if err := c2.Close(); err != nil {
				t.Fatalf("second leg close: %v", err)
			}

			got := run.collect(t)
			assertIdentical(t, baseline, got)
			snap := run.reg.Snapshot()
			if n := snap.Counters[fe.resumes]; n != 1 {
				t.Errorf("%s = %d, want 1", fe.resumes, n)
			}
			if fe.expired != "" {
				if n := snap.Counters[fe.expired]; n != 0 {
					t.Errorf("%s = %d, want 0", fe.expired, n)
				}
			}
			if g := snap.Gauges[fe.parked]; g != 0 {
				t.Errorf("%s = %d, want 0", fe.parked, g)
			}
			if run.gwReg == run.reg {
				if g := snap.Gauges[server.MetricMemoryInUse]; g != 0 {
					t.Errorf("%s = %d after shutdown, want 0 (admission budget leaked or double-released)",
						server.MetricMemoryInUse, g)
				}
			} else {
				// Behind a router the gatewayd releases the budget once the
				// router's drained upstream leg reaches it, just after the
				// router's Shutdown returns.
				waitFor(t, "admission budget released", func() bool {
					return run.gwReg.Snapshot().Gauges[server.MetricMemoryInUse] == 0
				})
			}
		})
	}
}

// TestParkExpiryResumeRace races a RESUME against park expiry on both
// front ends: with a tiny -park-timeout, each iteration aborts a
// resumable session and schedules the RESUME to land exactly at the
// expiry deadline. Either side may win — the invariant is the
// bookkeeping: the admission budget is released exactly once (the
// memory gauge never goes negative and returns to zero), no session
// leaks parked, and with MaxSessions=1 the front end keeps admitting,
// which fails if a slot is ever double-counted or leaked.
func TestParkExpiryResumeRace(t *testing.T) {
	cfg := testConfig()
	const parkTimeout = 50 * time.Millisecond
	for _, fe := range frontEnds {
		t.Run(fe.name, func(t *testing.T) {
			run := fe.start(t, server.Config{
				ParkTimeout: parkTimeout,
				MaxSessions: 1,
			})
			iq := make([]complex128, 2*chaosChunk)
			const iters = 15
			resumed, expired := 0, 0
			for i := 0; i < iters; i++ {
				station := fmt.Sprintf("race-%d", i)
				c, err := server.Dial(run.addr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := c.Resume(station, cfg); err != nil {
					t.Fatalf("iteration %d: resume: %v", i, err)
				}
				if err := c.WriteIQ(iq); err != nil {
					t.Fatalf("iteration %d: write: %v", i, err)
				}
				c.Abort()
				time.Sleep(parkTimeout) // land the RESUME on the expiry deadline

				before := run.reg.Snapshot().Counters[fe.resumes]
				c2, _ := resumeRetry(t, run.addr, station, cfg)
				if run.reg.Snapshot().Counters[fe.resumes] > before {
					resumed++
				} else {
					expired++
				}
				if err := c2.Close(); err != nil {
					t.Fatalf("iteration %d: close: %v", i, err)
				}
				if g := run.gwReg.Snapshot().Gauges[server.MetricMemoryInUse]; g < 0 {
					t.Fatalf("iteration %d: %s = %d — admission budget double-released",
						i, server.MetricMemoryInUse, g)
				}
				waitFor(t, "session teardown", func() bool {
					snap := run.reg.Snapshot()
					return snap.Gauges[fe.active] == 0 &&
						snap.Gauges[fe.parked] == 0 &&
						run.gwReg.Snapshot().Gauges[server.MetricMemoryInUse] == 0
				})
			}
			t.Logf("expiry races over %d iterations: %d resumed, %d expired to fresh sessions",
				iters, resumed, expired)
			if resumed+expired != iters {
				t.Fatalf("accounted %d outcomes, want %d", resumed+expired, iters)
			}
			if fe.expired != "" {
				if n := run.reg.Snapshot().Counters[fe.expired]; int(n) < expired {
					t.Errorf("%s = %d, want at least %d", fe.expired, n, expired)
				}
			}
		})
	}
}
