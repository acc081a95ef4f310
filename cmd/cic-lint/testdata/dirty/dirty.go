// Package dirty breaks two invariants: its //cic:hotpath root
// allocates, and it compares a sentinel error with ==.
package dirty

import "io"

// Grow allocates fresh storage on every call.
//
//cic:hotpath
func Grow(n int) []int {
	return make([]int, n)
}

// AtEOF matches a sentinel with == instead of errors.Is.
func AtEOF(err error) bool {
	return err == io.EOF
}
