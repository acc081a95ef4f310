package cic

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"cic/internal/dsp"
)

// IQ file handling in the .cf32 format used by GNU Radio and most SDR
// tooling: interleaved little-endian float32 pairs (I, Q).

// WriteCF32 writes IQ samples in cf32 format.
func WriteCF32(w io.Writer, iq []complex128) error {
	bw := bufio.NewWriter(w)
	var scratch [8]byte
	for _, v := range iq {
		binary.LittleEndian.PutUint32(scratch[0:4], math.Float32bits(float32(real(v))))
		binary.LittleEndian.PutUint32(scratch[4:8], math.Float32bits(float32(imag(v))))
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCF32 reads all IQ samples from a cf32 stream. For long captures
// prefer CF32Reader, which decodes in caller-sized chunks with constant
// memory (the cic-decode and cic-feed path).
func ReadCF32(r io.Reader) ([]complex128, error) {
	cr := NewCF32Reader(r)
	var out []complex128
	buf := make([]complex128, 4096)
	for {
		n, err := cr.Read(buf)
		out = append(out, buf[:n]...)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// CF32Reader incrementally decodes a cf32 stream (interleaved
// little-endian float32 I, Q) into caller-provided chunks, so an
// arbitrarily long capture streams through fixed memory.
type CF32Reader struct {
	br *bufio.Reader
}

// NewCF32Reader wraps r (a file, pipe, network stream, or stdin).
func NewCF32Reader(r io.Reader) *CF32Reader {
	return &CF32Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Read fills dst with up to len(dst) samples and reports how many were
// decoded. At a clean end of stream it returns io.EOF (possibly
// alongside n > 0 decoded samples); a stream ending mid-sample is an
// error.
func (r *CF32Reader) Read(dst []complex128) (int, error) {
	var scratch [8]byte
	for i := range dst {
		_, err := io.ReadFull(r.br, scratch[:])
		if errors.Is(err, io.EOF) {
			return i, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return i, fmt.Errorf("cic: cf32 stream truncated mid-sample")
		}
		if err != nil {
			return i, err
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(scratch[0:4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(scratch[4:8]))
		dst[i] = complex(float64(re), float64(im))
	}
	return len(dst), nil
}

// WriteCF32File writes IQ samples to a cf32 file.
func WriteCF32File(path string, iq []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCF32(f, iq); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCF32File reads a cf32 file.
func ReadCF32File(path string) ([]complex128, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCF32(f)
}

// Decimate low-pass filters and downsamples an IQ capture by an integer
// factor — the bridge between a wideband SDR recording and the decoder's
// working rate. For example, a 2 MHz USRP capture of 250 kHz LoRa
// (8× oversampled) decimated by 2 decodes with Oversampling: 4.
func Decimate(iq []complex128, factor int) ([]complex128, error) {
	d, err := dsp.NewDecimator(factor, 0)
	if err != nil {
		return nil, err
	}
	return d.Process(iq), nil
}
