// Package rx exercises the call graph's address-taken marks: a method
// called through a selector (t.m()) is a direct call, not a method
// value, so a func-value call in a hot root must not gain an edge to
// it. This fixture's package name keeps it on the decode path, where
// hotpropagate follows dynamic edges.
package rx

type T struct{}

// m allocates, but it is only ever called directly: no hot root
// reaches it, so its make() must not be reported.
func (T) m(n int) {
	buf := make([]float64, n)
	_ = buf
}

func use(t T) { t.m(1) }

// HotRoot calls a func(int) value; m has that signature once its
// receiver is bound, which is what a false address-taken mark would
// match.
//
//cic:hotpath
func HotRoot(f func(int)) { f(1) }
