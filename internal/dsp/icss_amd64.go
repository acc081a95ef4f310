package dsp

// foldSum writes FoldMagnitude's fold of x into dst — of full − x when
// full is non-empty, differenced only on the bins the fold reads — and
// returns dst's Energy, summed left to right. hi is the upper image's
// offset (osr−1)·bins; len(dst) = bins is a positive multiple of 4.
// scaleMin sets acc[i] = s[i]·inv where that is less than acc[i], as
// IntersectInto does, over len(acc), a positive multiple of 4. Both are
// bit-identical to the Go loops; implemented in icss_amd64.s, callers
// check useAVX2.
//
//go:noescape
func foldSum(dst []float64, x, full []complex128, hi int) float64

//go:noescape
func scaleMin(acc, s []float64, inv float64)

// foldFits reports whether foldSum takes a fold of x into dst: AVX2, two
// images, whole four-bin groups, x exactly bins·osr long and dst bins.
func foldFits(dst Spectrum, x []complex128, bins, osr int) bool {
	return useAVX2 && osr > 1 && bins > 0 && bins%4 == 0 && len(x) == bins*osr && len(dst) == bins
}

// foldMagnitudeVec runs FoldMagnitude with the vector fold and reports
// true, or reports false without touching dst when the shape does not fit.
//
//cic:hotpath
func foldMagnitudeVec(dst Spectrum, x []complex128, bins, osr int) bool {
	if !foldFits(dst, x, bins, osr) {
		return false
	}
	foldSum(dst, x, nil, (osr-1)*bins)
	return true
}

// intersectFoldVec runs IntersectFold as one vector fold and energy pass
// into sub and one scale-and-minimum pass into acc, and reports true; it
// reports false without touching its arguments when the shape does not
// fit.
//
//cic:hotpath
func intersectFoldVec(acc, sub Spectrum, full, x []complex128, bins, osr int) bool {
	if !foldFits(sub, x, bins, osr) || len(acc) != bins || (full != nil && len(full) != len(x)) {
		return false
	}
	e := foldSum(sub, x, full, (osr-1)*bins)
	// Normalize leaves a spectrum of energy ≤ 0 unscaled, and s·1 is s
	// bit for bit (every s is a product, never a signalling NaN); a NaN
	// energy fails the test and scales by NaN, as Normalize does.
	inv := 1.0
	if !(e <= 0) {
		inv = 1 / e
	}
	scaleMin(acc, sub, inv)
	return true
}
