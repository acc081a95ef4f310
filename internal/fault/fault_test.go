package fault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestReaderCorruptAndPartial: a corrupt event flips exactly the
// scheduled byte; a partial event splits the read at its offset; the
// rest of the stream is untouched.
func TestReaderCorruptAndPartial(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i)
	}
	fr := NewReader(bytes.NewReader(data), []Event{
		{Kind: KindPartial, Offset: 10},
		{Kind: KindCorrupt, Offset: 20, Mask: 0x01},
	})
	buf := make([]byte, 16)
	n, err := fr.Read(buf)
	if err != nil || n != 10 {
		t.Fatalf("first read: n=%d err=%v, want split at 10", n, err)
	}
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	got = append(buf[:n], got...)
	if len(got) != len(data) {
		t.Fatalf("read %d bytes, want %d", len(got), len(data))
	}
	for i := range data {
		want := data[i]
		if i == 20 {
			want ^= 0x01
		}
		if got[i] != want {
			t.Fatalf("byte %d: got %#x, want %#x", i, got[i], want)
		}
	}
}

// TestReaderDrop: a drop event surfaces ErrInjected exactly at its
// offset, with every prior byte delivered intact.
func TestReaderDrop(t *testing.T) {
	data := bytes.Repeat([]byte{0xAB}, 100)
	fr := NewReader(bytes.NewReader(data), []Event{{Kind: KindDrop, Offset: 33}})
	got, err := io.ReadAll(fr)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if len(got) != 33 {
		t.Fatalf("delivered %d bytes before drop, want 33", len(got))
	}
}

// TestConnWriteFaults: write-direction corruption and drops fire at
// exact offsets; the peer sees the corrupted byte and then a real
// connection close; the writer's own buffer is never mutated.
func TestConnWriteFaults(t *testing.T) {
	client, srv := net.Pipe()
	defer srv.Close()
	var fired []Event
	fc := WrapConn(client, Schedule{Write: []Event{
		{Kind: KindCorrupt, Offset: 3, Mask: 0x80},
		{Kind: KindDrop, Offset: 8},
	}}, func(e Event) { fired = append(fired, e) })

	recv := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(srv)
		recv <- b
	}()
	payload := []byte("0123456789")
	orig := append([]byte(nil), payload...)
	n, err := fc.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Write err = %v, want ErrInjected", err)
	}
	if n != 8 {
		t.Fatalf("wrote %d bytes before drop, want 8", n)
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("caller's buffer was mutated by write-side corruption")
	}
	got := <-recv
	want := []byte("012\xb345678")[:8]
	if !bytes.Equal(got, want) {
		t.Fatalf("peer received %q, want %q", got, want)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
}

// TestConnStall: a stall delays the covering read by at least Delay.
func TestConnStall(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	fc := WrapConn(srv, Schedule{Read: []Event{{Kind: KindStall, Offset: 0, Delay: 30 * time.Millisecond}}}, nil)
	go client.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := fc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("read returned after %v, want >= 30ms stall", d)
	}
}
