// Package rx exercises the hotpropagate analyzer on the //cic:hotpath
// roots themselves: a root carries the allocation contract directly —
// no make/new, and append only into arena-rooted slices (struct fields,
// parameters, callee-returned scratch); //cic:alloc-ok waives a line.
// The roots are exported so the stale-annotation check (no caller in
// the loaded program) leaves them alone.
package rx

type demod struct {
	scratch []float64
	peaks   []int
}

func (d *demod) arena() []float64 { return d.scratch[:0] }

// coldPath is unmarked: the analyzer must stay silent no matter what it
// allocates.
func coldPath(n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, float64(i))
	}
	return out
}

// HotMake allocates fresh storage every call.
//
//cic:hotpath
func HotMake(n int) []float64 {
	out := make([]float64, n) // want `make\(\) in hot-path function HotMake`
	return out
}

// HotNew heap-allocates every call.
//
//cic:hotpath
func HotNew() *demod {
	return new(demod) // want `new\(\) in hot-path function HotNew`
}

// HotAppendFresh grows a slice rooted in nothing: every warm call may
// reallocate.
//
//cic:hotpath
func HotAppendFresh(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `append into non-arena slice in hot-path function HotAppendFresh`
	}
	return out
}

// HotAppendFromMake roots the destination in a make: both sites are
// wrong, and each is reported where it happens.
//
//cic:hotpath
func HotAppendFromMake(n int) []int {
	out := make([]int, 0) // want `make\(\) in hot-path function HotAppendFromMake`
	return append(out, n) // want `append into non-arena slice in hot-path function HotAppendFromMake`
}

// HotWaived shows the escape hatch: the result genuinely escapes, so the
// allocation is sanctioned inline.
//
//cic:hotpath
func HotWaived() *demod {
	d := new(demod) //cic:alloc-ok — the accepted result escapes to the caller
	return d
}

// HotFieldAppend grows struct-field scratch directly: allowed (grows once
// at warm-up, reused thereafter).
//
//cic:hotpath
func (d *demod) HotFieldAppend(v int) {
	d.peaks = append(d.peaks, v)
}

// HotFieldRootedLocal uses the save-back arena idiom: the local is rooted
// in a field slice expression, so appends through it are allowed.
//
//cic:hotpath
func (d *demod) HotFieldRootedLocal(vals []float64) {
	buf := d.scratch[:0]
	for _, v := range vals {
		buf = append(buf, v)
	}
	d.scratch = buf
}

// HotParamAppend implements the dst-reuse idiom: the caller owns the
// storage, so growing it is the caller's decision.
//
//cic:hotpath
func HotParamAppend(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// HotCalleeScratch appends into a callee-returned slice: the callee may
// hand out reusable scratch, so this is trusted.
//
//cic:hotpath
func (d *demod) HotCalleeScratch(v float64) {
	buf := append(d.arena(), v)
	d.scratch = buf
}

// HotClosure checks that allocation sites inside closures of a hot-path
// function are still scanned, and that captured rooted locals stay rooted.
// The closure's func(int, int) shape matches no function of this package,
// so the func-value call adds no call edge to another function here.
//
//cic:hotpath
func (d *demod) HotClosure(vals []int) {
	out := d.peaks[:0]
	add := func(_, v int) {
		out = append(out, v)
		tmp := make([]int, 1) // want `make\(\) in hot-path function HotClosure`
		_ = tmp
	}
	for i, v := range vals {
		add(i, v)
	}
	d.peaks = out
}

// HotMultiSiteWaiver pins the waiver's line granularity: one
// //cic:alloc-ok covers every allocation site on its line, here two
// makes in a single assignment.
//
//cic:hotpath
func HotMultiSiteWaiver() ([]float64, []float64) {
	a, b := make([]float64, 4), make([]float64, 4) //cic:alloc-ok — both escape; one waiver spans the whole line
	return a, b
}

// HotStaleWaiver carries a waiver on a line that neither allocates nor
// escapes: the waiver is dead weight and must be reported so it cannot
// mask a future allocation added to the same line.
//
//cic:hotpath
func HotStaleWaiver(n int) int {
	n++ //cic:alloc-ok — nothing here allocates: want `stale //cic:alloc-ok waiver in hot-path function HotStaleWaiver`
	return n
}
