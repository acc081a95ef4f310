// Package cic is a pure-Go implementation of Concurrent Interference
// Cancellation (CIC) — the LoRa multi-packet collision decoder of Shahid
// et al., SIGCOMM 2021 — together with everything needed to use and
// evaluate it: a LoRa modulator (chirp spread spectrum + full PHY bit
// pipeline), a channel simulator, the prior-art baseline receivers
// (standard LoRa, Choir, FTrack), and an evaluation harness that
// regenerates every figure of the paper.
//
// # Quick start
//
//	cfg := cic.DefaultConfig()
//	tx, _ := cic.NewTransmitter(cfg)
//	wave, _ := tx.Modulate([]byte("hello"))
//	// ... mix waves, add noise (see SimulateCollision) ...
//	rx, _ := cic.NewReceiver(cfg)
//	packets, _ := rx.DecodeBuffer(iq)
//
// The receiver accepts raw complex-baseband IQ (as a []complex128 buffer, a
// SampleSource, or a .cf32 file via ReadCF32) and returns every decodable
// packet, including packets that collide in time — the paper's
// contribution. Algorithm selection (WithAlgorithm) switches between CIC
// and the baseline decoders for comparison.
//
// There is one decoder: the streaming Gateway, which takes IQ in chunks of
// any size and delivers packets on a channel as each transmission
// completes. A Receiver decode writes its whole input into a Gateway and
// closes it, so batch decoding, streaming, the cic-gatewayd daemon and
// every evaluation figure share one pipeline, and the output does not
// depend on how the input is chunked.
package cic

import (
	"fmt"

	"cic/internal/chirp"
	"cic/internal/frame"
	"cic/internal/phy"
)

// Config describes a LoRa network's PHY parameters. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// SpreadingFactor is the LoRa SF, 7..12.
	SpreadingFactor int
	// Bandwidth in Hz (125e3, 250e3 or 500e3 for standard LoRa).
	Bandwidth float64
	// Oversampling is the ratio of complex sample rate to bandwidth
	// (a power of two; the paper's USRP capture used 8).
	Oversampling int
	// CodingRate selects the forward error correction: 1..4 for the LoRa
	// rates 4/5, 4/6, 4/7 and 4/8.
	CodingRate int
	// PayloadCRC appends (and checks) the 16-bit payload CRC.
	PayloadCRC bool
	// LowDataRate enables the low data-rate optimisation (reduced-rate
	// payload symbols; normally used at SF11/12).
	LowDataRate bool
	// ImplicitHeader omits the explicit PHY header; all devices must agree
	// on ImplicitLength, CodingRate and PayloadCRC out of band.
	ImplicitHeader bool
	// ImplicitLength is the fixed payload length in implicit-header mode.
	ImplicitLength int
	// SyncWord is the network sync word embedded in the preamble.
	SyncWord byte
}

// DefaultConfig returns the paper's deployment configuration: SF8,
// 250 kHz bandwidth, coding rate 4/5, payload CRC on, 4× oversampling
// (raise Oversampling to 8 to match the paper's USRP capture exactly —
// 4× halves the compute at an accuracy cost that is negligible in
// simulation).
func DefaultConfig() Config {
	return Config{
		SpreadingFactor: 8,
		Bandwidth:       250e3,
		Oversampling:    4,
		CodingRate:      1,
		PayloadCRC:      true,
		SyncWord:        0x34,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	_, err := c.frameConfig()
	return err
}

// SampleRate returns the complex baseband sample rate in Hz.
func (c Config) SampleRate() float64 {
	return float64(c.Oversampling) * c.Bandwidth
}

// SamplesPerSymbol returns 2^SF · Oversampling.
func (c Config) SamplesPerSymbol() int {
	return (1 << c.SpreadingFactor) * c.Oversampling
}

// PacketSamples returns the total samples a packet with the given payload
// length occupies (preamble included).
func (c Config) PacketSamples(payloadLen int) (int, error) {
	fc, err := c.frameConfig()
	if err != nil {
		return 0, err
	}
	return fc.PacketSampleCount(payloadLen), nil
}

// frameConfig converts to the internal layered configuration.
func (c Config) frameConfig() (frame.Config, error) {
	fc := frame.Config{
		Chirp: chirp.Params{
			SF:        c.SpreadingFactor,
			Bandwidth: c.Bandwidth,
			OSR:       c.Oversampling,
		},
		PHY: phy.Config{
			SF:             c.SpreadingFactor,
			CR:             phy.CodingRate(c.CodingRate),
			HasCRC:         c.PayloadCRC,
			LowDataRate:    c.LowDataRate,
			ImplicitHeader: c.ImplicitHeader,
			ImplicitLength: c.ImplicitLength,
		},
		SyncWord: c.SyncWord,
	}
	if err := fc.Validate(); err != nil {
		return frame.Config{}, fmt.Errorf("cic: invalid config: %w", err)
	}
	return fc, nil
}

// Packet is one received LoRa packet.
type Packet struct {
	// Start is the absolute sample index of the packet's first preamble
	// sample.
	Start int64
	// Payload is the decoded payload (nil when the decode failed).
	Payload []byte
	// OK reports a fully verified decode: header checksum and payload CRC
	// both passed.
	OK bool
	// SNR is the estimated signal-to-noise ratio in dB (in-band).
	SNR float64
	// CFO is the estimated carrier frequency offset in Hz.
	CFO float64
	// FECCorrected counts single-bit errors repaired by the Hamming layer.
	FECCorrected int
}

// SampleSource exposes random access to complex baseband samples.
// Implementations must zero-fill reads outside their span and be safe for
// concurrent readers. MemorySamples adapts a plain buffer.
type SampleSource interface {
	// Read fills dst with samples for the absolute window
	// [start, start+len(dst)).
	Read(dst []complex128, start int64)
	// Span returns the half-open range of sample indices carrying signal.
	Span() (start, end int64)
}
