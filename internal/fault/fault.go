// Package fault is a deterministic fault-injection layer for the cic
// ingestion pipeline: schedule-driven net.Conn and io.Reader wrappers
// that inject connection drops, read/write stalls, short (partial)
// transfers and single-byte corruption at exact byte offsets of a
// stream. Schedules are plain data that tests build literally, so a
// given schedule reproduces the same fault at the same byte on every
// run, which is what lets the chaos suite compare a faulted run
// byte-for-byte against a fault-free baseline. Only tests import this
// package.
package fault

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"
)

// ErrInjected is the error surfaced by an injected connection drop.
// Callers distinguish injected faults from organic transport errors with
// errors.Is.
var ErrInjected = errors.New("fault: injected connection drop")

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindDrop closes the underlying connection at the event offset; the
	// in-flight call returns ErrInjected. On a Reader it just returns
	// ErrInjected.
	KindDrop Kind = iota + 1
	// KindStall sleeps Delay before the byte at the event offset is
	// transferred (read/write latency).
	KindStall
	// KindCorrupt XORs the byte at the event offset with Mask (0 means
	// 0xFF, so the zero Mask still corrupts).
	KindCorrupt
	// KindPartial splits the transfer at the event offset: the call
	// covering the offset stops there (a short read, or a write split
	// into two underlying writes), exercising framing code against
	// fragmented I/O without any error.
	KindPartial
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindStall:
		return "stall"
	case KindCorrupt:
		return "corrupt"
	case KindPartial:
		return "partial"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one scheduled fault at an absolute byte offset of a stream
// direction (reads and writes are counted independently).
type Event struct {
	Kind   Kind
	Offset int64         // absolute byte offset the event fires at
	Delay  time.Duration // KindStall only
	Mask   byte          // KindCorrupt only; 0 means 0xFF
}

// Schedule is the per-connection fault plan: independent event lists for
// the read and write directions, each applied in offset order.
type Schedule struct {
	Read  []Event
	Write []Event
}

// injector applies one direction's events to a byte stream. It is not
// safe for concurrent use; net.Conn wrappers own one per direction,
// matching the one-reader/one-writer discipline of the framing layer.
type injector struct {
	events  []Event
	idx     int
	pos     int64
	onFault func(Event)
	drop    func()
	sleep   func(time.Duration)
	scratch []byte // write-side corruption copies through here
}

func newInjector(events []Event, onFault func(Event), drop func()) *injector {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	return &injector{events: sorted, onFault: onFault, drop: drop, sleep: time.Sleep}
}

func (in *injector) fire(e Event) {
	if in.onFault != nil {
		in.onFault(e)
	}
}

// step prepares the next transfer of at most n bytes at the current
// offset: it applies every event due at the current position (stalls,
// drops, consumed split points), caps n so the next pending event lands
// exactly on a call boundary, and reports whether the first transferred
// byte must be corrupted. A KindDrop returns ErrInjected.
func (in *injector) step(n int) (m int, corrupt *Event, err error) {
	for in.idx < len(in.events) && in.events[in.idx].Offset <= in.pos {
		e := in.events[in.idx]
		in.idx++
		switch e.Kind {
		case KindStall:
			in.fire(e)
			in.sleep(e.Delay)
		case KindDrop:
			in.fire(e)
			if in.drop != nil {
				in.drop()
			}
			return 0, nil, ErrInjected
		case KindCorrupt:
			in.fire(e)
			corrupt = &in.events[in.idx-1]
		case KindPartial:
			// The split point itself was consumed by the previous call
			// ending here; nothing to do now.
			in.fire(e)
		}
		if corrupt != nil {
			break
		}
	}
	m = n
	if in.idx < len(in.events) {
		if d := in.events[in.idx].Offset - in.pos; d > 0 && d < int64(m) {
			m = int(d)
		}
	}
	return m, corrupt, nil
}

// read performs one injected read through op.
func (in *injector) read(p []byte, op func([]byte) (int, error)) (int, error) {
	if len(p) == 0 || in.idx >= len(in.events) {
		n, err := op(p)
		in.pos += int64(n)
		return n, err
	}
	m, corrupt, err := in.step(len(p))
	if err != nil {
		return 0, err
	}
	n, err := op(p[:m])
	if corrupt != nil && n > 0 {
		p[0] ^= corruptMask(corrupt.Mask)
	}
	in.pos += int64(n)
	return n, err
}

// write performs one injected write through op, looping over split
// points so the caller still sees a full write (or an error) — the
// io.Writer contract forbids a short count with a nil error.
func (in *injector) write(p []byte, op func([]byte) (int, error)) (int, error) {
	total := 0
	for len(p) > 0 {
		if in.idx >= len(in.events) {
			n, err := op(p)
			in.pos += int64(n)
			return total + n, err
		}
		m, corrupt, err := in.step(len(p))
		if err != nil {
			return total, err
		}
		chunk := p[:m]
		if corrupt != nil {
			if cap(in.scratch) < m {
				in.scratch = make([]byte, m)
			}
			s := in.scratch[:m]
			copy(s, chunk)
			s[0] ^= corruptMask(corrupt.Mask)
			chunk = s
		}
		n, err := op(chunk)
		in.pos += int64(n)
		total += n
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}

func corruptMask(m byte) byte {
	if m == 0 {
		return 0xFF
	}
	return m
}

// Conn wraps a net.Conn with a fault schedule. Read and Write offsets
// are counted independently from 0 at wrap time. A KindDrop closes the
// underlying connection (both directions), so the peer observes a real
// disconnect. Conn is safe for the usual one-reader/one-writer
// discipline plus concurrent Close.
type Conn struct {
	net.Conn
	rd *injector
	wr *injector
}

// WrapConn applies sched to conn. onFault (optional) observes every
// injected event, e.g. to count faults in a metrics registry.
func WrapConn(conn net.Conn, sched Schedule, onFault func(Event)) *Conn {
	c := &Conn{Conn: conn}
	drop := func() { _ = conn.Close() }
	c.rd = newInjector(sched.Read, onFault, drop)
	c.wr = newInjector(sched.Write, onFault, drop)
	return c
}

// Read applies the read-direction schedule.
func (c *Conn) Read(p []byte) (int, error) {
	return c.rd.read(p, c.Conn.Read)
}

// Write applies the write-direction schedule.
func (c *Conn) Write(p []byte) (int, error) {
	return c.wr.write(p, c.Conn.Write)
}

// Reader wraps an io.Reader with a read-direction event list — the
// io-only variant for parser tests and fuzzing, where no connection
// exists to drop.
type Reader struct {
	r  io.Reader
	in *injector
}

// NewReader applies events to r. A KindDrop surfaces as ErrInjected.
func NewReader(r io.Reader, events []Event) *Reader {
	return &Reader{r: r, in: newInjector(events, nil, nil)}
}

// Read applies the schedule.
func (fr *Reader) Read(p []byte) (int, error) {
	return fr.in.read(p, fr.r.Read)
}
