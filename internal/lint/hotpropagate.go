package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPropagate enforces the zero-steady-state-allocation contract on the
// decode hot path. A function whose doc comment carries a
// `//cic:hotpath` marker is a root; the roots and every function
// reachable from them must not call make() or new(), and may append()
// only into arena-rooted destinations — derived from a struct field, a
// function parameter, or a callee's return value (the dst-reuse idiom:
// scratch owned by the struct or handed in by the caller may grow once
// at warm-up and is then reused). Propagation means a hot loop cannot
// shed the contract by delegating to an unannotated helper. A
// `//cic:alloc-ok` comment on the same line waives one sanctioned
// allocation (e.g. a result that genuinely escapes to the caller); a
// waiver on a line with nothing to waive is itself reported as stale.
// Reachability follows static call edges everywhere and dynamic
// (interface / func-value) edges into decode-path packages; an edge is
// cut when the call site carries a `//cic:alloc-ok` waiver — that is
// how a sanctioned per-packet allocation boundary (e.g. handing a
// decoded payload to the caller) is expressed. The analyzer also flags
// stale annotations: a `//cic:hotpath` comment not attached to a
// function declaration, and annotated unexported functions that nothing
// in the program calls. docs/PERFORMANCE.md describes the arena
// ownership rules; docs/LINTING.md catalogues the invariant.
var HotPropagate = &Analyzer{
	Name: "hotpropagate",
	Doc: "//cic:hotpath roots and every function they reach must not allocate: " +
		"no make/new, and append only into arena-rooted (field/parameter/callee-returned) " +
		"slices; hoist the allocation, or waive the line or call edge with //cic:alloc-ok " +
		"(stale waivers and stale //cic:hotpath markers are reported)",
	RunProgram: runHotPropagate,
}

func runHotPropagate(pass *ProgramPass) error {
	cg := pass.Prog.CallGraph()
	fset := pass.Prog.Fset

	// Waived source lines across the whole program, keyed by filename.
	waived := map[string]map[int]token.Pos{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			name := fset.Position(file.Pos()).Filename
			waived[name] = markerLines(fset, file, allocOKMarker)
		}
	}
	isWaived := func(pos token.Pos) bool {
		p := fset.Position(pos)
		_, ok := waived[p.Filename][p.Line]
		return ok
	}

	var roots []*FuncNode
	for _, n := range cg.Nodes {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	reached := cg.reachableFrom(roots, func(site *CallSite) bool {
		if isWaived(site.Pos) {
			return true
		}
		// Dynamic dispatch is followed only into decode-path packages:
		// sinks and observability implementations behind interfaces are
		// not on the zero-alloc contract.
		return site.Dynamic && !decodePathPkgs[site.Callee.Pkg.Name]
	})

	for _, n := range cg.Nodes {
		info, ok := reached[n]
		if !ok {
			continue
		}
		scanAllocs(n.Pkg.Info, n.Decl, func(pos token.Pos, what string) {
			if isWaived(pos) {
				return
			}
			if n.Hot {
				reportRootAlloc(pass, pos, what, n.Decl.Name.Name)
				return
			}
			verb := what + "()"
			if what == "append" {
				verb = "append into non-arena slice"
			}
			pass.Reportf(pos, "%s in %s, which is reachable from //cic:hotpath root %s (%s): annotate it //cic:hotpath, hoist the allocation, or waive the call edge with //cic:alloc-ok",
				verb, n.Name(), info.root.Name(), pathTo(reached, n))
		})
		checkStaleWaivers(pass, n.Decl, waived[fset.Position(n.Decl.Pos()).Filename])
	}

	reportStaleHotpathMarkers(pass, cg)
	return nil
}

// reportRootAlloc reports an allocation inside a //cic:hotpath root.
func reportRootAlloc(pass *ProgramPass, pos token.Pos, what, fn string) {
	switch what {
	case "make":
		pass.Reportf(pos, "make() in hot-path function %s: allocate scratch at construction and reuse it, or waive with //cic:alloc-ok", fn)
	case "new":
		pass.Reportf(pos, "new() in hot-path function %s: reuse construction-time scratch, or waive with //cic:alloc-ok", fn)
	case "append":
		pass.Reportf(pos, "append into non-arena slice in hot-path function %s: grow caller-provided or struct-field scratch instead, or waive with //cic:alloc-ok", fn)
	}
}

// reportStaleHotpathMarkers flags //cic:hotpath comments that do not
// annotate anything: markers outside any function doc comment, and
// annotated unexported functions with no inbound call edges that are
// never address-taken (nothing in the loaded program — tests are not
// loaded — can reach them, so the contract is unenforced upstream).
func reportStaleHotpathMarkers(pass *ProgramPass, cg *CallGraph) {
	// Positions of comments that are part of a function's doc.
	inDoc := map[token.Pos]bool{}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					inDoc[c.Pos()] = true
				}
			}
		}
	}
	for _, pkg := range pass.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cgrp := range file.Comments {
				for _, c := range cgrp.List {
					trimmed := strings.TrimSpace(c.Text)
					switch {
					case trimmed == hotpathMarker && !inDoc[c.Pos()]:
						pass.Reportf(c.Pos(), "stale //cic:hotpath marker: not attached to a function declaration, so no analyzer enforces it")
					case trimmed != hotpathMarker && strings.HasPrefix(trimmed, hotpathMarker+" "):
						// The marker only takes effect as the comment's entire
						// text; trailing words silently disable it.
						pass.Reportf(c.Pos(), "malformed //cic:hotpath marker: trailing text disables it — the marker must be the comment's entire text")
					}
				}
			}
		}
	}
	for _, n := range cg.Nodes {
		if !n.Hot || ast.IsExported(n.Obj.Name()) || n.AddrTaken || len(n.Callers) > 0 {
			continue
		}
		pass.Reportf(n.Decl.Pos(), "stale //cic:hotpath annotation on %s: no caller in the loaded program — remove the marker or wire the function into the pipeline", n.Name())
	}
}

// hotpath and waiver markers recognised in comments. The markers are
// matched as comment prefixes so free-form rationale may follow.
const (
	hotpathMarker = "//cic:hotpath"
	allocOKMarker = "//cic:alloc-ok"
)

// isHotpath reports whether the function's doc comment contains a
// `//cic:hotpath` marker line.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathMarker {
			return true
		}
	}
	return false
}

// markerLines collects the source lines carrying a comment with the
// given prefix, keyed by line with the comment's position as value.
func markerLines(fset *token.FileSet, file *ast.File, prefix string) map[int]token.Pos {
	lines := map[int]token.Pos{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, prefix) {
				lines[fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return lines
}

// scanAllocs walks fn's body and calls report for every allocation the
// hot-path contract forbids: make, new, and append into a non-arena
// destination.
func scanAllocs(info *types.Info, fn *ast.FuncDecl, report func(pos token.Pos, what string)) {
	rooted := arenaRootedVars(info, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		b, ok := info.Uses[id].(*types.Builtin)
		if !ok {
			return true
		}
		switch b.Name() {
		case "make", "new":
			report(call.Pos(), b.Name())
		case "append":
			if len(call.Args) > 0 && !arenaRooted(info, call.Args[0], rooted) {
				report(call.Pos(), "append")
			}
		}
		return true
	})
}

// checkStaleWaivers reports `//cic:alloc-ok` comments inside a function
// on the hot-path contract that sit on a line with nothing to waive. Waivable events
// are allocation sites (make/new/append), non-builtin calls (the
// hotpropagate edge cut), composite literals, channel sends, and stores
// through selectors (the arenaescape events) — a waiver anywhere else
// is dead weight that would silently mask a future edit.
func checkStaleWaivers(pass *ProgramPass, fn *ast.FuncDecl, waived map[int]token.Pos) {
	fset := pass.Prog.Fset
	start := fset.Position(fn.Body.Pos()).Line
	end := fset.Position(fn.Body.End()).Line
	used := map[int]bool{}
	mark := func(pos token.Pos) { used[fset.Position(pos).Line] = true }
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Conversions allocate when the target is a slice/string;
			// counting every call keeps the check conservative.
			mark(x.Pos())
		case *ast.CompositeLit:
			mark(x.Pos())
		case *ast.SendStmt:
			mark(x.Pos())
		case *ast.AssignStmt:
			for _, lh := range x.Lhs {
				if _, ok := ast.Unparen(lh).(*ast.SelectorExpr); ok {
					mark(x.Pos())
				}
			}
		case *ast.ReturnStmt:
			mark(x.Pos())
		}
		return true
	})
	for line, pos := range waived {
		if line < start || line > end || used[line] {
			continue
		}
		pass.Reportf(pos, "stale //cic:alloc-ok waiver in hot-path function %s: nothing on this line allocates or escapes", fn.Name.Name)
	}
}

// arenaRooted reports whether the expression's storage root is an arena:
// a struct field (selector), a non-builtin call result (callees return
// their own scratch), or a local/parameter in the rooted set. Slice and
// index expressions delegate to their operand.
func arenaRooted(info *types.Info, e ast.Expr, rooted map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return true
		case *ast.CallExpr:
			// Builtins: append inherits its destination's rootedness,
			// make/new (and everything else returning fresh values) do not
			// root anything. Non-builtin calls may legitimately return
			// reusable scratch, so they count as arenas.
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					if b.Name() == "append" && len(x.Args) > 0 {
						e = x.Args[0]
						continue
					}
					return false
				}
			}
			return true
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj != nil && rooted[obj]
		default:
			return false
		}
	}
}

// arenaRootedVars computes (to a fixpoint, flow-insensitively) the
// variables inside fn whose storage is arena-rooted: the receiver and
// parameters seed the set, and any variable assigned from an arena-rooted
// expression joins it. `cands := dm.candBuf[:0]` therefore roots cands,
// while `var cands []T` or `cands := make([]T, 0)` does not.
func arenaRootedVars(info *types.Info, fn *ast.FuncDecl) map[types.Object]bool {
	rooted := map[types.Object]bool{}
	seed := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					rooted[obj] = true
				}
			}
		}
	}
	seed(fn.Recv)
	seed(fn.Type.Params)

	lhsObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		mark := func(obj types.Object) {
			if obj != nil && !rooted[obj] {
				rooted[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lh := range x.Lhs {
					if i < len(x.Rhs) && arenaRooted(info, x.Rhs[i], rooted) {
						mark(lhsObj(lh))
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) && arenaRooted(info, x.Values[i], rooted) {
						mark(info.Defs[name])
					}
				}
			}
			return true
		})
	}
	return rooted
}
