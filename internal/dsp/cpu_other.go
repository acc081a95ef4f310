//go:build !amd64

package dsp

// useAVX2 reports whether the vector kernels run; only amd64 has them.
const useAVX2 = false

// sweepPolyphase sets sums[i] = polyphaseSums(x, theta4[i]) for every i
// (len(x) a multiple of 4, at least 8).
//
//cic:hotpath
func sweepPolyphase(x []complex128, theta4 []float64, sums []phaseSums) {
	sweepPolyphaseGo(x, theta4, sums)
}

// stages runs the butterfly schedule over x, which must already be in
// digit-reversed order.
//
//cic:hotpath
func (f *FFT) stages(x []complex128) {
	f.stagesGo(x)
}

// foldMagnitudeVec and intersectFoldVec report false: without the vector
// fold, FoldMagnitude and IntersectFold run their Go loops.
//
//cic:hotpath
func foldMagnitudeVec(dst Spectrum, x []complex128, bins, osr int) bool {
	return false
}

//cic:hotpath
func intersectFoldVec(acc, sub Spectrum, full, x []complex128, bins, osr int) bool {
	return false
}
