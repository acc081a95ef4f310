// cic-lint is the project's multichecker: it runs every analyzer in
// internal/lint over the given package patterns (default ./...) and
// prints one `file:line:col: message (analyzer)` line per finding on
// stdout. `make lint` runs it as part of the ci gate; docs/LINTING.md
// catalogues the analyzers and the invariants they enforce.
//
// Usage:
//
//	cic-lint [-list] [-v] [packages]
//
//	-list   print the analyzer catalogue, then exit
//	-v      per-analyzer timing on stderr
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cic/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cic-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	verbose := fs.Bool("v", false, "print per-analyzer timing on stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cic-lint [-list] [-v] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs cic's invariant analyzers over the given package patterns\n")
		fmt.Fprintf(stderr, "(default ./...). Exits 1 when any diagnostic is reported.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "cic-lint: %v\n", err)
		return 2
	}
	diags, timings, err := lint.RunTimed(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(stderr, "cic-lint: %v\n", err)
		return 2
	}
	if *verbose {
		for _, t := range timings {
			fmt.Fprintf(stderr, "cic-lint: %-14s %8.1fms\n", t.Name, float64(t.Elapsed.Microseconds())/1000)
		}
	}

	cwd, _ := os.Getwd()
	for _, d := range diags {
		if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && r != ".." && !strings.HasPrefix(r, ".."+string(filepath.Separator)) {
			d.Pos.Filename = r
		}
		d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cic-lint: %d invariant violation(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
