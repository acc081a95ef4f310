package dsp

// r4first runs the q = 1 radix-4 stage over x's contiguous groups of four
// (len(x) a multiple of 4, at least 4). r4stage runs the stage of quarter
// q (q even, len(x) a multiple of 4q) with the stage's w1, w2 and w3
// tables, q entries each, starting at w. Both are bit-identical to
// stagesGo's loops. Implemented in fft_amd64.s; callers check useAVX2.
//
//go:noescape
func r4first(x []complex128)

//go:noescape
func r4stage(x []complex128, q int, w *complex128)

// stages runs the butterfly schedule over x, which must already be in
// digit-reversed order: the vector radix-4 stages with AVX2 (after the
// radix-2 pass in Go when log2 n is odd), stagesGo otherwise.
//
//cic:hotpath
func (f *FFT) stages(x []complex128) {
	if !useAVX2 || f.n < 4 {
		f.stagesGo(x)
		return
	}
	q := 4
	if f.logN&1 == 1 {
		radix2(x)
		q = 2
	} else {
		r4first(x)
	}
	w := f.stageTw
	for ; 4*q <= f.n; q <<= 2 {
		r4stage(x, q, &w[0])
		w = w[3*q:]
	}
}
