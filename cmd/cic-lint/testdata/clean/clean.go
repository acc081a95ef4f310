// Package clean breaks no invariant: its //cic:hotpath root grows only
// caller-provided scratch.
package clean

// Fill appends into the caller's slice, the dst-reuse idiom.
//
//cic:hotpath
func Fill(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}
