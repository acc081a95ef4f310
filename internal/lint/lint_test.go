package lint_test

import (
	"testing"

	"cic/internal/lint"
	"cic/internal/lint/linttest"
)

// Each analyzer is exercised against a self-contained fixture package
// under testdata/ whose `// want` comments pin down both the violating
// and the compliant forms of the invariant.

func TestNoPanicFixture(t *testing.T) {
	linttest.RunFixture(t, lint.NoPanic, "testdata/nopanic")
}

func TestClockInjectFixture(t *testing.T) {
	linttest.RunFixture(t, lint.ClockInject, "testdata/clockinject")
}

func TestErrWrapFixture(t *testing.T) {
	linttest.RunFixture(t, lint.ErrWrap, "testdata/errwrap")
}

func TestAtomicAlignFixture(t *testing.T) {
	linttest.RunFixture(t, lint.AtomicAlign, "testdata/atomicalign")
}

func TestNilSafeObsFixture(t *testing.T) {
	linttest.RunFixture(t, lint.NilSafeObs, "testdata/nilsafeobs")
}

func TestBoundedAllocFixture(t *testing.T) {
	linttest.RunFixture(t, lint.BoundedAlloc, "testdata/boundedalloc")
}

func TestHotAllocFixture(t *testing.T) {
	linttest.RunFixture(t, lint.HotPropagate, "testdata/hotalloc")
}

func TestHotPropagateFixture(t *testing.T) {
	linttest.RunFixture(t, lint.HotPropagate, "testdata/hotpropagate")
}

func TestGoroutineLeakFixture(t *testing.T) {
	linttest.RunFixture(t, lint.GoroutineLeak, "testdata/goroutineleak")
}

func TestLockDisciplineFixture(t *testing.T) {
	linttest.RunFixture(t, lint.LockDiscipline, "testdata/lockdiscipline")
}

func TestArenaEscapeFixture(t *testing.T) {
	linttest.RunFixture(t, lint.ArenaEscape, "testdata/arenaescape")
}

// TestScopedAnalyzersSkipForeignPackages pins the package-name scoping:
// the decode-path and obs analyzers must stay silent on packages
// outside their scope even when those packages contain what would
// otherwise be violations.
func TestScopedAnalyzersSkipForeignPackages(t *testing.T) {
	linttest.RunFixture(t, lint.NoPanic, "testdata/outofscope")
	linttest.RunFixture(t, lint.ClockInject, "testdata/outofscope")
	linttest.RunFixture(t, lint.BoundedAlloc, "testdata/outofscope")
	linttest.RunFixture(t, lint.NilSafeObs, "testdata/outofscope")
	linttest.RunFixture(t, lint.HotPropagate, "testdata/outofscope")
	linttest.RunFixture(t, lint.GoroutineLeak, "testdata/outofscope")
	linttest.RunFixture(t, lint.LockDiscipline, "testdata/outofscope")
	linttest.RunFixture(t, lint.ArenaEscape, "testdata/outofscope")
}

// TestMethodCallNotAddressTaken pins the call graph's address-taken
// marks: a method only ever called through a selector draws no
// func-value edge, so hotpropagate stays silent on it.
func TestMethodCallNotAddressTaken(t *testing.T) {
	linttest.RunFixture(t, lint.HotPropagate, "testdata/methodcall")
}
