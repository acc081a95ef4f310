//go:build !amd64

package dsp

// useGoertzel3 reports whether sweepPolyphase runs the batched kernel.
const useGoertzel3 = false

// sweepPolyphase sets sums[i] = polyphaseSums(x, theta4[i]) for every i
// (len(x) a multiple of 4, at least 8). Only amd64 has a batched kernel.
//
//cic:hotpath
func sweepPolyphase(x []complex128, theta4 []float64, sums []phaseSums) {
	sweepPolyphaseGo(x, theta4, sums)
}
