// Package lint is cic's project-specific static-analysis suite: a small
// go/analysis-style framework (stdlib only — the module has no external
// dependencies, so golang.org/x/tools is deliberately not used) plus the
// analyzers that mechanically enforce the decode pipeline's safety
// invariants:
//
//   - nilsafeobs:   exported methods on internal/obs handle types are
//     nil-receiver safe, keeping the disabled-metrics path free.
//   - boundedalloc: allocations sized from wire-read integers are
//     dominated by a bound check (cap-before-allocate).
//   - nopanic:      no panic call in decode-path packages outside
//     init and must* constructors.
//   - errwrap:      fmt.Errorf wraps error operands with %w, and
//     sentinel errors are matched with errors.Is, not ==.
//   - clockinject:  decode-stage code never reads the wall clock
//     directly; it goes through the internal/obs helpers.
//   - atomicalign:  64-bit sync/atomic calls on raw integers are
//     replaced by atomic.Int64/atomic.Uint64 typed atomics.
//
// On top of the per-package analyzers sits a whole-program layer
// (callgraph.go) used by the flow-sensitive analyzers:
//
//   - hotpropagate: the //cic:hotpath contract propagates through the
//     call graph — functions reachable from a hot root are alloc-checked
//     even without their own annotation, and stale annotations are
//     flagged.
//   - goroutineleak: go statements in the server/cic/experiment
//     packages must be tied to an observable termination signal.
//   - lockdiscipline: no mutex held across channel operations, blocking
//     I/O or callback invocations, and named server locks are acquired
//     in a consistent order.
//   - arenaescape:   receiver-owned scratch slices must not be stored
//     into escaping values without an explicit copy or waiver.
//
// The shapes of Analyzer, Pass and Diagnostic mirror
// golang.org/x/tools/go/analysis, so an analyzer written here ports to
// the upstream driver by changing imports. cmd/cic-lint is the
// multichecker; docs/LINTING.md catalogues the invariants.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer is one invariant checker. Exactly one of Run and RunProgram
// is set: Run sees one type-checked package at a time, RunProgram sees
// the whole loaded module (with its call graph) in a single pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one type-checked package and reports findings
	// through the Pass.
	Run func(*Pass) error
	// RunProgram inspects the whole program at once; used by the
	// analyzers that need the call graph.
	RunProgram func(*ProgramPass) error
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ProgramPass carries the whole loaded program through one
// program-level analyzer run.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ArenaEscape,
		AtomicAlign,
		BoundedAlloc,
		ClockInject,
		ErrWrap,
		GoroutineLeak,
		HotPropagate,
		LockDiscipline,
		NilSafeObs,
		NoPanic,
	}
}

// AnalyzerTiming is the cumulative wall time one analyzer spent across
// every package (or its single whole-program pass).
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// Run applies every analyzer to every package and returns the findings
// sorted by position (then by analyzer name, for determinism when two
// analyzers fire on the same token).
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunTimed(pkgs, analyzers)
	return diags, err
}

// RunTimed is Run plus per-analyzer cumulative timing, in analyzer
// order.
func RunTimed(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerTiming, error) {
	var diags []Diagnostic
	elapsed := map[string]time.Duration{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			start := time.Now()
			err := a.Run(pass)
			elapsed[a.Name] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("lint: running %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		pass := &ProgramPass{
			Analyzer: a,
			Prog:     prog,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		start := time.Now()
		err := a.RunProgram(pass)
		elapsed[a.Name] += time.Since(start)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: running %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	timings := make([]AnalyzerTiming, 0, len(analyzers))
	for _, a := range analyzers {
		timings = append(timings, AnalyzerTiming{Name: a.Name, Elapsed: elapsed[a.Name]})
	}
	return diags, timings, nil
}

// calleeFunc resolves the function or method a call statically invokes,
// or nil for builtins, conversions, and dynamic calls through function
// values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t (a static expression type) satisfies the
// error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
		return false
	}
	return types.Implements(t, errorIface)
}
