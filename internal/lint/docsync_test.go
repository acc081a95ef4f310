package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cic/internal/lint"
)

// TestAnalyzersDocumented cross-checks the analyzer suite
// (`cic-lint -list`, lint.All) against the analyzer table
// in docs/LINTING.md, the same doc-sync pattern TestMetricsDocumented
// uses for the metrics reference: every analyzer must have a table row,
// every table row must name a real analyzer, and the count the prose
// states must match the suite.
func TestAnalyzersDocumented(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(moduleRoot(t), "docs", "LINTING.md"))
	if err != nil {
		t.Fatalf("reading docs/LINTING.md: %v", err)
	}
	doc := string(data)

	// Table rows look like: | `name` | invariant … |
	rowRE := regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	documented := map[string]bool{}
	for _, m := range rowRE.FindAllStringSubmatch(doc, -1) {
		if documented[m[1]] {
			t.Errorf("docs/LINTING.md: analyzer %q has duplicate table rows", m[1])
		}
		documented[m[1]] = true
	}

	suite := lint.All()
	for _, a := range suite {
		if a.Doc == "" {
			t.Errorf("analyzer %q has an empty Doc string", a.Name)
		}
		if !documented[a.Name] {
			t.Errorf("analyzer %q has no row in the docs/LINTING.md catalogue table", a.Name)
		}
		delete(documented, a.Name)
	}
	for name := range documented {
		t.Errorf("docs/LINTING.md documents %q, which is not in lint.All()", name)
	}

	countRE := regexp.MustCompile(`\((\w+) analyzers`)
	m := countRE.FindStringSubmatch(doc)
	if m == nil {
		t.Fatalf("docs/LINTING.md no longer states the analyzer count in its intro")
	}
	words := map[int]string{7: "seven", 8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve", 13: "thirteen", 14: "fourteen", 15: "fifteen"}
	if want := words[len(suite)]; want != "" && !strings.EqualFold(m[1], want) {
		t.Errorf("docs/LINTING.md intro says %q analyzers; the suite has %d (%q)", m[1], len(suite), want)
	}
}
