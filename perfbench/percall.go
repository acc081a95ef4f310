package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"cic/internal/core"
	"cic/internal/eval"
	"cic/internal/phy"
	"cic/internal/rx"
	"cic/internal/server"
)

// perCallSamples is the slice of station 0's period part (b) of the
// traced run works on.
const perCallSamples = 1 << 20

// perCall holds mean times of single calls into the layers below the
// Gateway, and how many calls each mean is over.
type perCall struct {
	readFrameUS, decodeIQNS, publishUS float64
	frames                             int

	detectSPerMs float64 // rx.Detector.ScanDownchirp, s per Msample
	headerSymUS  float64 // Demodulator.DemodulateSymbol on header symbols
	headerSyms   int

	icssUS, sedGatesUS float64 // per payload symbol
	symbols            int
	phyDecodeUS        float64 // per packet
	packets            int
	chaseUS            float64 // per attempt
	chaseAttempts      int
}

// timePerCall times the public rx, core, phy and server calls on the
// packets rx.Detector.ScanDownchirp finds in the first perCallSamples of
// tr's period. Interferer sets are those of a whole-slice scan, so they
// can differ from the streaming Gateway's; only per-call means are
// reported.
func timePerCall(tr *trace, recs []server.Record) (*perCall, error) {
	pc := &perCall{}
	n := perCallSamples / tr.frame
	if n > tr.frameCount() {
		n = tr.frameCount()
	}

	// Wire framing: ReadFrame over the slice's frames, then their bodies.
	var wire bytes.Buffer
	for _, f := range tr.frames[:n] {
		wire.Write(f)
	}
	rd := bytes.NewReader(wire.Bytes())
	var readT, decT time.Duration
	iq := make([]complex128, 0, n*tr.frame)
	var buf []complex128
	for {
		t0 := time.Now()
		typ, body, err := server.ReadFrame(rd)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if typ != server.FrameIQ {
			return nil, fmt.Errorf("frame type 0x%02x in the trace", typ)
		}
		t1 := time.Now()
		if buf, err = server.DecodeIQBody(buf[:0], body); err != nil {
			return nil, err
		}
		decT += time.Since(t1)
		readT += t1.Sub(t0)
		iq = append(iq, buf...)
		pc.frames++
	}
	pc.readFrameUS = us(readT) / float64(pc.frames)
	pc.decodeIQNS = float64(decT.Nanoseconds()) / float64(len(iq))

	if err := timePublish(pc, recs); err != nil {
		return nil, err
	}

	fc := eval.DefaultConfig().Frame
	det, err := rx.NewDetector(fc, rx.DetectorOptions{})
	if err != nil {
		return nil, err
	}
	dm, err := core.NewDemodulator(fc, core.Options{})
	if err != nil {
		return nil, err
	}
	src := &rx.MemorySource{Samples: iq}
	t0 := time.Now()
	pkts := det.ScanDownchirp(src)
	pc.detectSPerMs = time.Since(t0).Seconds() / (float64(len(iq)) / 1e6)
	others := func(i int) []*rx.Packet {
		o := make([]*rx.Packet, 0, len(pkts)-1)
		for j, q := range pkts {
			if j != i {
				o = append(o, q)
			}
		}
		return o
	}
	// Headers first, so every packet's length is known as an interferer.
	var hdrSyms [][]uint16
	var cfgs []phy.Config
	var hdrT time.Duration
	for _, p := range pkts {
		p.NSymbols = phy.MaxSymbolCount(fc.PHY)
	}
	for i, p := range pkts {
		syms := make([]uint16, 0, p.NSymbols)
		oth := others(i)
		t0 := time.Now()
		for s := 0; s < phy.HeaderSymbolCount; s++ {
			syms = append(syms, dm.DemodulateSymbol(src, p, s, oth))
		}
		hdrT += time.Since(t0)
		pc.headerSyms += phy.HeaderSymbolCount
		hdrSyms = append(hdrSyms, syms)
		cfgs = append(cfgs, fc.PHY)
		if hdr, ok := rx.HeaderFromSymbols(syms, fc.PHY); ok {
			cfgs[i].CR, cfgs[i].HasCRC = hdr.CR, hdr.HasCRC
			p.NSymbols = phy.SymbolCount(cfgs[i], int(hdr.Length))
		} else {
			hdrSyms[i] = nil
		}
	}
	var icssT, pickT, decodeT, chaseT time.Duration
	for i, p := range pkts {
		if hdrSyms[i] == nil || p.End(fc) > int64(len(iq)) {
			continue
		}
		syms := hdrSyms[i]
		var alts [][]uint16
		oth := others(i)
		for s := phy.HeaderSymbolCount; s < p.NSymbols; s++ {
			t0 := time.Now()
			dm.IntersectedSpectrum(src, p, s, oth)
			t1 := time.Now()
			ranked := dm.PickSymbolAlternates(src, p, s, oth)
			t2 := time.Now()
			icssT += t1.Sub(t0)
			pickT += t2.Sub(t1)
			syms = append(syms, ranked[0])
			alts = append(alts, append([]uint16(nil), ranked...))
			pc.symbols++
		}
		t0 := time.Now()
		dec, err := phy.Decode(syms, fc.PHY)
		decodeT += time.Since(t0)
		pc.packets++
		if err == nil && !dec.CRCOK {
			t0 := time.Now()
			rx.ChaseDecode(syms, alts, fc.PHY)
			chaseT += time.Since(t0)
			pc.chaseAttempts++
		}
	}
	if pc.headerSyms > 0 {
		pc.headerSymUS = us(hdrT) / float64(pc.headerSyms)
	}
	if pc.symbols > 0 {
		pc.icssUS = us(icssT) / float64(pc.symbols)
		// PickSymbolAlternates runs the intersection itself, then SED and
		// the CFO and power gates; the difference is the latter's share.
		pc.sedGatesUS = us(pickT-icssT) / float64(pc.symbols)
	}
	if pc.packets > 0 {
		pc.phyDecodeUS = us(decodeT) / float64(pc.packets)
	}
	if pc.chaseAttempts > 0 {
		pc.chaseUS = us(chaseT) / float64(pc.chaseAttempts)
	}
	return pc, nil
}

// minPublishes is how many records timePublish pushes through the sink.
const minPublishes = 1000

// timePublish times server.Fanout.Publish with one TCP subscriber that
// drains its end as fast as it can.
func timePublish(pc *perCall, recs []server.Record) error {
	if len(recs) == 0 {
		recs = []server.Record{{Station: "st-0", Payload: hex.EncodeToString(make([]byte, payloadLen))}}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()
	srv, err := ln.Accept()
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		_, _ = io.Copy(io.Discard, client)
	}()
	f := server.NewFanout()
	f.AddSubscriber(srv)
	var t time.Duration
	for i := 0; i < minPublishes; i++ {
		r := recs[i%len(recs)]
		r.Seq = i
		t0 := time.Now()
		f.Publish(r)
		t += time.Since(t0)
		// Let the subscriber's writer keep up: a queue that overflows
		// evicts the subscriber, and the timing would stop covering one.
		runtime.Gosched()
	}
	subs := f.Subscribers()
	if err := f.Close(); err != nil {
		return err
	}
	client.Close()
	<-drained
	if subs != 1 {
		return fmt.Errorf("publish timing: the subscriber was evicted")
	}
	pc.publishUS = us(t) / minPublishes
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
