package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"cic/internal/lint"
)

// TestModuleIsLintClean runs the full multichecker suite over the real
// module — the same analysis `make lint` (cmd/cic-lint ./...) performs —
// and asserts zero diagnostics. Reintroducing a panic on the decode
// path, an unguarded obs method, an unbounded wire allocation, a ==
// sentinel comparison, a raw 64-bit atomic, a direct clock read in stage
// code, a hot-path allocation, a leakable goroutine, a lock held across
// a channel op, or an escaping arena slice therefore fails `go test
// ./...`, not just `make lint`.
func TestModuleIsLintClean(t *testing.T) {
	pkgs, err := lint.Load(".", "cic/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the cic/... pattern should cover the whole module", len(pkgs))
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
