package dsp

// useAVX2 is set once at package init: the CPU executes AVX2 and the OS
// saves the ymm registers across context switches. It gates the vector
// kernels: goertzel3, the radix-4 FFT stages and the fused ICSS fold.
var useAVX2 = hasAVX2()

// cpuid and xgetbv execute the instructions of the same names
// (cpu_amd64.s); xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// hasAVX2 reports CPUID's AVX2 flag, gated on the OS having enabled the
// ymm state (OSXSAVE, then XCR0's SSE and AVX bits).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}
