package dsp

import "math"

// goertzel3 runs polyphaseSums' recurrences at the three angles whose
// 2·cos 4θ fill k[0], k[1] and k[2] (each broadcast to four lanes) in one
// pass over x, len(x) a multiple of 4 and at least 4, and stores each
// angle's final state in st. Every value is bit-identical to the scalar
// loop's. Implemented in goertzel_amd64.s; callers check useAVX2.
//
//go:noescape
func goertzel3(x []complex128, k *[3][4]float64, st *[3]goertzelState)

// sweepPolyphase sets sums[i] = polyphaseSums(x, theta4[i]) for every i,
// bit for bit (len(x) a multiple of 4, at least 8). With AVX2 it sweeps
// x once per three angles, padding the last pass with repeats of the
// final angle; otherwise it runs the scalar loop per angle.
//
//cic:hotpath
func sweepPolyphase(x []complex128, theta4 []float64, sums []phaseSums) {
	if !useAVX2 {
		sweepPolyphaseGo(x, theta4, sums)
		return
	}
	var k [3][4]float64
	var sc [3][2]float64 // sin 4θ, cos 4θ per angle
	var st [3]goertzelState
	for i := 0; i < len(theta4); i += 3 {
		batch := min(len(theta4)-i, 3)
		for j := range 3 {
			if j < batch {
				sc[j][0], sc[j][1] = math.Sincos(theta4[i+j])
			}
			kj := 2 * sc[min(j, batch-1)][1]
			k[j] = [4]float64{kj, kj, kj, kj}
		}
		goertzel3(x, &k, &st)
		for j := range batch {
			sums[i+j] = st[j].finish(sc[j][0], sc[j][1])
		}
	}
}
