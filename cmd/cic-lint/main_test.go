package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestExitContract pins cic-lint's exit statuses and output shape: one
// `file:line:col: message (analyzer)` line on stdout per finding and
// exit 1; silence and exit 0 on a clean package; exit 2 when the
// packages cannot be loaded.
func TestExitContract(t *testing.T) {
	t.Run("findings", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./testdata/dirty"}, &stdout, &stderr); code != 1 {
			t.Fatalf("exit %d, want 1\nstderr:\n%s", code, &stderr)
		}
		lineRE := regexp.MustCompile(`^testdata/dirty/dirty\.go:(\d+):\d+: .+ \((\w+)\)$`)
		want := map[string]string{"11": "hotpropagate", "16": "errwrap"}
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		if len(lines) != len(want) {
			t.Fatalf("%d finding lines, want %d:\n%s", len(lines), len(want), &stdout)
		}
		for _, l := range lines {
			m := lineRE.FindStringSubmatch(l)
			if m == nil {
				t.Errorf("finding line %q is not file:line:col: message (analyzer)", l)
				continue
			}
			if want[m[1]] != m[2] {
				t.Errorf("line %s reported by %s, want %q", m[1], m[2], want[m[1]])
			}
		}
	})
	t.Run("clean", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./testdata/clean"}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
		}
		if stdout.Len() != 0 || stderr.Len() != 0 {
			t.Errorf("clean package produced output:\nstdout:\n%s\nstderr:\n%s", &stdout, &stderr)
		}
	})
	t.Run("load error", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./testdata/missing"}, &stdout, &stderr); code != 2 {
			t.Fatalf("exit %d, want 2\nstderr:\n%s", code, &stderr)
		}
		if stdout.Len() != 0 {
			t.Errorf("load error wrote findings:\n%s", &stdout)
		}
	})
}
