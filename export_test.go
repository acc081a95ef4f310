package cic

// StageExited reports whether g's stage goroutine has returned.
func StageExited(g *Gateway) bool {
	select {
	case <-g.stageDone:
		return true
	default:
		return false
	}
}
