// Command cic-decode decodes LoRa packets — including multi-packet
// collisions — from a .cf32 IQ capture (as produced by cic-gen, GNU Radio,
// or any SDR front end at OSR× the LoRa bandwidth).
//
// Usage:
//
//	cic-decode -in capture.cf32 [-algo cic|strawman|lora|choir|ftrack] [flags]
//	cic-decode -in -                    # decode from stdin
//
// Decoded packets are printed one per line: start sample, SNR, CFO, CRC
// status and payload hex. The capture streams through a cic.Gateway in
// -chunk sized pieces, so memory stays constant no matter how long the
// capture is (and -in - accepts a pipe). The chunk size does not change
// what is decoded.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"cic"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cic-decode:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", `input .cf32 path, or "-" for stdin (required)`)
		algo      = flag.String("algo", "cic", "decoder: cic, strawman, lora, choir, ftrack")
		chunk     = flag.Int("chunk", 65536, "samples per read")
		sf        = flag.Int("sf", 8, "spreading factor")
		bw        = flag.Float64("bw", 250e3, "bandwidth Hz")
		osr       = flag.Int("osr", 4, "oversampling ratio of the capture")
		cr        = flag.Int("cr", 1, "coding rate 1..4 (4/5..4/8)")
		workers   = flag.Int("workers", 0, "decode workers (0 = GOMAXPROCS)")
		stats     = flag.Bool("stats", false, "print the decode-pipeline metrics snapshot as JSON on stderr")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address while decoding")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}

	cfg := cic.DefaultConfig()
	cfg.SpreadingFactor = *sf
	cfg.Bandwidth = *bw
	cfg.Oversampling = *osr
	cfg.CodingRate = *cr
	if err := cfg.Validate(); err != nil {
		return err
	}

	options := []cic.Option{
		cic.WithAlgorithm(cic.Algorithm(*algo)),
		cic.WithWorkers(*workers),
	}
	// Instrumentation is opt-in: with neither -stats nor -debug-addr the
	// decode path runs with metrics disabled (the nil-registry fast path).
	var reg *cic.Metrics
	if *stats || *debugAddr != "" {
		reg = cic.NewMetrics()
		options = append(options, cic.WithMetrics(reg))
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, cic.DebugHandler(reg)); err != nil {
				fmt.Fprintln(os.Stderr, "cic-decode: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics\n", *debugAddr)
	}

	var src io.Reader
	if *in == "-" {
		src = os.Stdin
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}

	err := streamDecode(cfg, src, *algo, *chunk, options)
	if err == nil && *stats {
		err = dumpStats(reg.Snapshot())
	}
	return err
}

// streamDecode pushes the capture through a cic.Gateway in fixed-size
// chunks, printing packets as they are delivered. Memory stays constant
// regardless of capture length: one chunk buffer plus the gateway's
// bounded ring.
func streamDecode(cfg cic.Config, src io.Reader, algo string, chunk int, options []cic.Option) error {
	if chunk <= 0 {
		return fmt.Errorf("-chunk must be positive")
	}
	gw, err := cic.NewGateway(cfg, options...)
	if err != nil {
		return err
	}
	// Close on every exit path: an early return on a read or write error
	// must still close the Packets channel, or the printer goroutine
	// below would block on its range forever. Close is idempotent, so
	// the explicit flush before the final count is unaffected.
	defer gw.Close()
	done := make(chan int)
	go func() {
		n := 0
		for p := range gw.Packets() {
			printPacket(n, p)
			n++
		}
		done <- n
	}()
	cr := cic.NewCF32Reader(src)
	buf := make([]complex128, chunk)
	var total int64
	for {
		n, rerr := cr.Read(buf)
		if n > 0 {
			if _, werr := gw.Write(buf[:n]); werr != nil {
				return werr
			}
			total += int64(n)
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if err := gw.Close(); err != nil {
		return err
	}
	fmt.Printf("%d packet(s) found by %s in %d streamed samples\n", <-done, algo, total)
	return nil
}

func printPacket(i int, p cic.Packet) {
	status := "CRC OK "
	if !p.OK {
		status = "CRC BAD"
	}
	fmt.Printf("#%d start=%d snr=%.1fdB cfo=%+.0fHz %s payload=%x\n",
		i, p.Start, p.SNR, p.CFO, status, p.Payload)
}

func dumpStats(s cic.Stats) error {
	enc := json.NewEncoder(os.Stderr)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
