package fault_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cic/internal/fault"
)

// xorMask mirrors the injector's corrupt-mask rule: 0 means 0xFF.
func xorMask(m byte) byte {
	if m == 0 {
		return 0xFF
	}
	return m
}

// readAllChunked drains r with a fixed chunk size, bounding iterations
// so a broken reader cannot hang the test.
func readAllChunked(t *testing.T, r io.Reader, chunk int) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, chunk)
	for i := 0; i < 1<<16; i++ {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	t.Fatal("reader never reached EOF")
	return nil
}

// TestTwoHopOffsetsPerLeg pins the per-leg offset contract of a proxied
// fault plan: in a router deployment each hop wraps its own transport,
// so every schedule counts bytes on its own leg. Fragmentation injected
// on the first hop (partial reads) must not shift where the second
// hop's corruption lands, and a corrupt on each leg at the same offset
// composes (both XORs hit the same byte).
func TestTwoHopOffsetsPerLeg(t *testing.T) {
	data := make([]byte, 32)
	for i := range data {
		data[i] = byte(i)
	}
	leg1 := fault.NewReader(bytes.NewReader(data), []fault.Event{
		{Kind: fault.KindCorrupt, Offset: 3, Mask: 0x01},
		{Kind: fault.KindPartial, Offset: 7},
		{Kind: fault.KindPartial, Offset: 11},
	})
	leg2 := fault.NewReader(leg1, []fault.Event{
		{Kind: fault.KindCorrupt, Offset: 3, Mask: 0x02},
		{Kind: fault.KindCorrupt, Offset: 10, Mask: 0x40},
	})

	got := readAllChunked(t, leg2, 8)

	want := append([]byte(nil), data...)
	want[3] ^= 0x01 // leg 1
	want[3] ^= 0x02 // leg 2, same byte — offsets count per leg, not cumulative
	want[10] ^= 0x40
	if !bytes.Equal(got, want) {
		t.Fatalf("two-hop stream mismatch:\n got %x\nwant %x", got, want)
	}
}

// TestTwoHopPartialDoesNotShiftDownstream sweeps the leg-1 split point
// across the stream and checks leg 2's corrupt byte never moves.
func TestTwoHopPartialDoesNotShiftDownstream(t *testing.T) {
	data := make([]byte, 24)
	for i := range data {
		data[i] = byte(0xA0 + i)
	}
	for split := int64(0); split < 24; split++ {
		leg1 := fault.NewReader(bytes.NewReader(data), []fault.Event{
			{Kind: fault.KindPartial, Offset: split},
		})
		leg2 := fault.NewReader(leg1, []fault.Event{
			{Kind: fault.KindCorrupt, Offset: 13, Mask: 0x0F},
		})
		got := readAllChunked(t, leg2, 5)
		want := append([]byte(nil), data...)
		want[13] ^= 0x0F
		if !bytes.Equal(got, want) {
			t.Fatalf("split@%d: corrupt byte shifted:\n got %x\nwant %x", split, got, want)
		}
	}
}

// FuzzFaultTwoHop drives random corrupt+partial plans through a
// two-reader chain and checks the result equals applying leg 1's
// corruption to the data, then leg 2's corruption to that — i.e. each
// leg's offsets count that leg's own bytes no matter how the other leg
// fragments its reads.
func FuzzFaultTwoHop(f *testing.F) {
	f.Add([]byte("hello two-hop fault world"), uint16(3), uint16(3), byte(0x01), byte(0x02), uint16(7), uint16(5))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(0), uint16(7), byte(0), byte(0xFF), uint16(4), uint16(1))
	f.Add([]byte("x"), uint16(0), uint16(0), byte(0x80), byte(0x80), uint16(0), uint16(3))
	f.Add([]byte{}, uint16(9), uint16(9), byte(1), byte(1), uint16(9), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, off1, off2 uint16, mask1, mask2 byte, split uint16, chunk uint16) {
		leg1 := fault.NewReader(bytes.NewReader(data), []fault.Event{
			{Kind: fault.KindCorrupt, Offset: int64(off1), Mask: mask1},
			{Kind: fault.KindPartial, Offset: int64(split)},
		})
		leg2 := fault.NewReader(leg1, []fault.Event{
			{Kind: fault.KindCorrupt, Offset: int64(off2), Mask: mask2},
			{Kind: fault.KindPartial, Offset: int64(split) / 2},
		})
		got := readAllChunked(t, leg2, int(chunk%64)+1)

		want := append([]byte{}, data...)
		if int(off1) < len(want) {
			want[off1] ^= xorMask(mask1)
		}
		if int(off2) < len(want) {
			want[off2] ^= xorMask(mask2)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("off1=%d off2=%d split=%d chunk=%d:\n got %x\nwant %x",
				off1, off2, split, chunk%64+1, got, want)
		}
	})
}
