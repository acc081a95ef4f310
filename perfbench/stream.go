package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"cic/internal/server"
)

// session is one station's ingestion connection.
type session struct {
	tr   *trace
	conn net.Conn
	br   *bufio.Reader

	// Resumable sessions only: the server acknowledges every ingested IQ
	// frame. acked is the ingested-sample count of the latest ACK, ackc
	// is signalled on each, and readerDone carries the ack reader's end:
	// nil once the CLOSE reply arrived.
	resumable  bool
	acked      atomic.Int64
	ackc       chan struct{}
	readerDone chan error
}

// openSession dials addr and opens a session with HELLO, or with RESUME
// when resumable (the server then acknowledges each frame it ingests).
func openSession(addr string, tr *trace, resumable bool) (*session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s := &session{tr: tr, conn: conn, br: bufio.NewReader(conn), resumable: resumable}
	typ := server.FrameHello
	if resumable {
		typ = server.FrameResume
	}
	body, err := server.EncodeHello(server.HelloFor(tr.station, benchConfig()))
	if err == nil {
		err = server.WriteFrame(conn, typ, body)
	}
	if err == nil {
		err = s.awaitOK("HELLO")
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("station %s: %w", tr.station, err)
	}
	if resumable {
		s.ackc = make(chan struct{}, 1)
		s.readerDone = make(chan error, 1)
		go s.readAcks()
	}
	return s, nil
}

// awaitOK reads the server's reply to HELLO, RESUME or CLOSE.
func (s *session) awaitOK(stage string) error {
	_ = s.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	typ, body, err := server.ReadFrame(s.br)
	if err != nil {
		return fmt.Errorf("%s reply: %w", stage, err)
	}
	return replyErr(stage, typ, body)
}

// replyErr interprets a reply frame: nil for OK, the server's reason for
// ERROR.
func replyErr(stage string, typ byte, body []byte) error {
	switch typ {
	case server.FrameOK:
		return nil
	case server.FrameError:
		if se, perr := server.ParseErrorBody(body); perr == nil {
			return fmt.Errorf("%s refused: %w", stage, se)
		}
		return fmt.Errorf("%s refused", stage)
	}
	return fmt.Errorf("%s reply: unexpected frame type 0x%02x", stage, typ)
}

// readAcks consumes a resumable session's replies until the CLOSE reply,
// an ERROR or a broken connection.
func (s *session) readAcks() {
	_ = s.conn.SetReadDeadline(time.Time{})
	for {
		typ, body, err := server.ReadFrame(s.br)
		if err != nil {
			s.readerDone <- fmt.Errorf("reading acks: %w", err)
			return
		}
		if typ != server.FrameAck {
			s.readerDone <- replyErr("CLOSE", typ, body)
			return
		}
		off, err := server.ParseOffset(body)
		if err != nil {
			s.readerDone <- err
			return
		}
		s.acked.Store(off)
		select {
		case s.ackc <- struct{}{}:
		default:
		}
	}
}

// close sends CLOSE and waits for the drain acknowledgement.
func (s *session) close() error {
	defer s.conn.Close()
	if err := server.WriteFrame(s.conn, server.FrameClose, nil); err != nil {
		return fmt.Errorf("station %s CLOSE: %w", s.tr.station, err)
	}
	var err error
	if s.resumable {
		select {
		case err = <-s.readerDone:
		case <-time.After(60 * time.Second):
			err = fmt.Errorf("no CLOSE reply")
		}
	} else {
		err = s.awaitOK("CLOSE")
	}
	if err != nil {
		return fmt.Errorf("station %s: %w", s.tr.station, err)
	}
	return nil
}

// sendLog is what one station's sender saw: when each frame went out,
// relative to the run's time origin, and how many frames the daemon
// accepted before the session broke (all of them on success).
type sendLog struct {
	sent []time.Duration
	err  error
}

// sendPaced streams periods whole periods of the station's trace on the
// open-loop schedule paceDue, counted from origin.
func sendPaced(s *session, periods int, sps float64, origin time.Time) sendLog {
	n := periods * s.tr.frameCount()
	lg := sendLog{sent: make([]time.Duration, 0, n)}
	for f := 0; f < n; f++ {
		if d := paceDue(f, s.tr.frame, sps) - time.Since(origin); d > 0 {
			time.Sleep(d)
		}
		lg.sent = append(lg.sent, time.Since(origin))
		if _, err := s.conn.Write(s.tr.frames[f%s.tr.frameCount()]); err != nil {
			lg.err = err
			return lg
		}
	}
	return lg
}

// window is the closed loop's concurrency: IQ frames sent but not yet
// acknowledged as ingested.
const window = 4

// sendClosed streams the station's trace as a closed loop: frame f goes
// out once frame f-window has been ingested. Before frame warmFrames
// (inside the first period) it calls onWindow; it then stops at the
// period boundary nearest to `measure` after that call and returns the
// number of whole periods sent.
func sendClosed(s *session, warmFrames int, measure time.Duration, origin time.Time, onWindow func()) (sendLog, int) {
	per := s.tr.frameCount()
	var lg sendLog
	var wStart, prevBoundary time.Duration
	for f := 0; ; f++ {
		if f == warmFrames {
			onWindow()
			wStart = time.Since(origin)
		}
		if f > 0 && f%per == 0 {
			now := time.Since(origin)
			if now-wStart+(now-prevBoundary)/2 >= measure {
				return lg, f / per
			}
			prevBoundary = now
		}
		for int64(f-window)*int64(s.tr.frame) >= s.acked.Load() {
			select {
			case <-s.ackc:
			case err := <-s.readerDone:
				if err == nil {
					err = fmt.Errorf("session ended before CLOSE")
				}
				s.readerDone <- err // close() reads it again
				lg.err = err
				return lg, f/per + 1
			case <-time.After(60 * time.Second):
				lg.err = fmt.Errorf("no ACK for 60s")
				return lg, f/per + 1
			}
		}
		lg.sent = append(lg.sent, time.Since(origin))
		if _, err := s.conn.Write(s.tr.frames[f%per]); err != nil {
			lg.err = err
			return lg, f/per + 1
		}
	}
}

// record is one published NDJSON record plus its arrival time at the
// subscriber, relative to the run's time origin.
type record struct {
	server.Record
	at time.Duration
}

func (r record) key() recordKey {
	return recordKey{Start: r.Start, OK: r.OK, Payload: r.Payload, FECCorrected: r.FECCorrected}
}

// subscriber collects one daemon's NDJSON record stream.
type subscriber struct {
	conn net.Conn
	n    atomic.Int64
	done chan struct{}

	// Written by the reader goroutine, read after done is closed.
	lines []stampedLine
	err   error
}

type stampedLine struct {
	b  []byte
	at time.Duration
}

// subscribe connects to a daemon's pub address and stamps each record on
// arrival. Lines are parsed when the run ends, not while it measures.
func subscribe(addr string, origin time.Time) (*subscriber, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s := &subscriber{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		br := bufio.NewReaderSize(conn, 1<<16)
		for {
			b, err := br.ReadBytes('\n')
			at := time.Since(origin)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
					s.err = err
				}
				return
			}
			s.lines = append(s.lines, stampedLine{b, at})
			s.n.Add(1)
		}
	}()
	return s, nil
}

// finish waits until the stream has been quiet for settle after want
// records have arrived (so a record published beyond the expected ones is
// still read, and the gate sees it), or quiet for idle before that, or
// closed by the daemon; it then disconnects and returns the parsed records.
func (s *subscriber) finish(want int, settle, idle time.Duration) ([]record, error) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	last, lastN := time.Now(), int64(-1)
wait:
	for {
		n := s.n.Load()
		if n != lastN {
			last, lastN = time.Now(), n
		}
		quiet := time.Since(last)
		if quiet > idle || (n >= int64(want) && quiet > settle) {
			break
		}
		select {
		case <-s.done:
			break wait
		case <-tick.C:
		}
	}
	s.conn.Close()
	<-s.done
	recs := make([]record, 0, len(s.lines))
	for _, l := range s.lines {
		r := record{at: l.at}
		if err := json.Unmarshal(l.b, &r.Record); err != nil {
			return nil, fmt.Errorf("record %q: %w", l.b, err)
		}
		recs = append(recs, r)
	}
	return recs, s.err
}
