package cic

import "cic/internal/rx"

// PipelineExited reports whether g's stage and reorder goroutines have
// returned. The reorder goroutine returns only once Close has closed the
// results channel, which it does after every worker has returned.
func PipelineExited(g *Gateway) bool {
	for _, done := range []chan struct{}{g.stageDone, g.reorderDone} {
		select {
		case <-done:
		default:
			return false
		}
	}
	return true
}

// PanicScanFrom makes g's detection scan panic when it detects a packet
// starting at or after from. Call it before the first Write.
func PanicScanFrom(g *Gateway, from int64) {
	scan := g.scan
	g.scan = func(src rx.SampleSource, start, end int64, tracked []*rx.Packet) []*rx.Packet {
		found := scan(src, start, end, tracked)
		for _, p := range found {
			if p.Start >= from {
				panic("injected scan panic")
			}
		}
		return found
	}
}
