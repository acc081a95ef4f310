// Package helper sits outside every scoped analyzer's package set: the
// would-be violations below must NOT be reported by nopanic,
// clockinject, boundedalloc, nilsafeobs, goroutineleak, lockdiscipline,
// or arenaescape — and hotpropagate, which scopes by //cic:hotpath marker
// rather than by package, must stay silent on the unannotated
// allocators here. (No want comments: the harness asserts zero
// diagnostics.)
package helper

import (
	"encoding/binary"
	"sync"
	"time"
)

// Counter shares a handle type name, but this is not the obs package.
type Counter struct{ n int64 }

// Add has no nil guard: fine outside internal/obs.
func (c *Counter) Add(v int64) { c.n += v }

// boom panics: fine outside the decode path.
func boom(k int) int {
	if k < 0 {
		panic("helper: out-of-scope panic")
	}
	return k
}

// stamp reads the clock: fine outside decode-stage packages.
func stamp() time.Time { return time.Now() }

// alloc sizes an allocation from wire bytes: fine outside the
// wire-facing packages.
func alloc(b []byte) []byte {
	n := binary.BigEndian.Uint32(b)
	return make([]byte, n)
}

// pool spawns an unbounded spinner and holds its lock across a channel
// send: fine outside the goroutine- and lock-policed packages.
type pool struct {
	mu      sync.Mutex
	out     chan int
	raw     chan []byte
	scratch []byte
}

func (p *pool) spawn() {
	go func() {
		for {
			p.mu.Lock()
			p.out <- 1
			p.mu.Unlock()
		}
	}()
}

// leak hands the receiver's scratch arena over a channel: fine outside
// the decode-path packages arenaescape polices.
func (p *pool) leak(n int) {
	p.raw <- p.scratch[:n]
}

var _, _, _ = boom, stamp, alloc
