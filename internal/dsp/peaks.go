package dsp

import "slices"

// Peak is a local maximum of a spectrum.
type Peak struct {
	Bin   int     // integer bin index
	Power float64 // bin power
}

// AppendPeaks appends the local maxima of s whose power is at least
// minPower to dst, sorted by descending power and truncated to maxPeaks
// (maxPeaks <= 0 means unlimited). The spectrum is treated as circular,
// matching the LoRa bin space. A plateau contributes a single peak at its
// first bin. Hot-path callers pass a retained dst to stay allocation-free;
// FindPeaks is the allocating convenience wrapper.
//
//cic:hotpath
func AppendPeaks(dst []Peak, s Spectrum, minPower float64, maxPeaks int) []Peak {
	n := len(s)
	if n == 0 {
		return dst
	}
	if n == 1 {
		if s[0] >= minPower {
			return append(dst, Peak{Bin: 0, Power: s[0]})
		}
		return dst
	}
	base := len(dst)
	for i := 0; i < n; i++ {
		v := s[i]
		if v < minPower {
			continue
		}
		prev := s[(i-1+n)%n]
		next := s[(i+1)%n]
		if v > prev && v >= next {
			dst = append(dst, Peak{Bin: i, Power: v})
		}
	}
	peaks := dst[base:]
	slices.SortFunc(peaks, func(a, b Peak) int {
		switch {
		case a.Power > b.Power:
			return -1
		case a.Power < b.Power:
			return 1
		default:
			return a.Bin - b.Bin
		}
	})
	if maxPeaks > 0 && len(peaks) > maxPeaks {
		dst = dst[:base+maxPeaks]
	}
	return dst
}

// FindPeaks returns local maxima of s whose power is at least minPower,
// sorted by descending power and truncated to maxPeaks (maxPeaks <= 0 means
// unlimited). See AppendPeaks for the allocation-free form.
func FindPeaks(s Spectrum, minPower float64, maxPeaks int) []Peak {
	return AppendPeaks(nil, s, minPower, maxPeaks)
}

// AppendTopPeaks appends up to maxPeaks local maxima whose power is at
// least frac times the global maximum (frac in [0,1]) to dst.
//
//cic:hotpath
func AppendTopPeaks(dst []Peak, s Spectrum, frac float64, maxPeaks int) []Peak {
	maxV, at := s.Max()
	if at < 0 || maxV <= 0 {
		return dst
	}
	return AppendPeaks(dst, s, maxV*frac, maxPeaks)
}

// TopPeaks returns up to maxPeaks local maxima whose power is at least
// frac times the global maximum. frac in [0,1]. See AppendTopPeaks for the
// allocation-free form.
func TopPeaks(s Spectrum, frac float64, maxPeaks int) []Peak {
	return AppendTopPeaks(nil, s, frac, maxPeaks)
}

// NoiseFloor estimates the noise floor of a spectrum as the median bin
// power. The median is robust to a handful of strong signal peaks.
func NoiseFloor(s Spectrum) float64 {
	return NoiseFloorInto(nil, s)
}

// NoiseFloorInto is NoiseFloor with caller-provided scratch: when
// len(tmp) >= len(s) the median is computed in tmp and the call does not
// allocate; otherwise scratch is allocated as in NoiseFloor. The caller's
// tmp contents are overwritten.
//
//cic:hotpath
func NoiseFloorInto(tmp []float64, s Spectrum) float64 {
	if len(s) == 0 {
		return 0
	}
	if len(tmp) < len(s) {
		tmp = make([]float64, len(s)) //cic:alloc-ok — cold fallback for short scratch
	}
	tmp = tmp[:len(s)]
	copy(tmp, s)
	m := len(tmp) / 2
	selectKth(tmp, m)
	if len(tmp)%2 == 1 {
		return tmp[m]
	}
	return 0.5 * (slices.Max(tmp[:m]) + tmp[m])
}

// selectKth reorders x so that x[k] is the value a sort would put there,
// with no larger value before it and no smaller one after (Hoare's
// quickselect): the median without the full sort.
//
//cic:hotpath
func selectKth(x []float64, k int) {
	lo, hi := 0, len(x)-1
	for lo < hi {
		pivot := x[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for x[i] < pivot {
				i++
			}
			for x[j] > pivot {
				j--
			}
			if i <= j {
				x[i], x[j] = x[j], x[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
