package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape guards the other side of the zero-alloc contract: the
// scratch arenas (receiver-owned slice fields, per docs/PERFORMANCE.md)
// are reused on every packet, so a slice rooted in one must not be
// stored anywhere that outlives the call without an explicit copy — the
// next packet would overwrite the bytes behind the emitted value.
// Flagged escapes: channel sends, stores through a parameter or
// package-level variable, and composite literals outside a return
// statement. Returning an arena slice is the documented hand-out idiom
// (the caller knows the buffer is borrowed until the next call) and
// stays legal, as does passing one as a call argument.
// `//cic:alloc-ok` on the line waives a sanctioned escape.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc: "slices rooted in a receiver-owned scratch arena must not escape " +
		"through channel sends, stores into parameters/globals, or non-return " +
		"composite literals without an explicit copy; waive with //cic:alloc-ok",
	Run: runArenaEscape,
}

func runArenaEscape(pass *Pass) error {
	if !decodePathPkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		waived := markerLines(pass.Fset, file, allocOKMarker)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil {
				continue
			}
			checkArenaEscape(pass, fn, waived)
		}
	}
	return nil
}

func checkArenaEscape(pass *Pass, fn *ast.FuncDecl, waived map[int]token.Pos) {
	info := pass.Info
	recvObj := receiverObject(info, fn)
	if recvObj == nil {
		return
	}
	rooted, params := fieldRootedVars(info, fn, recvObj)

	report := func(pos token.Pos, format string, args ...any) {
		if _, ok := waived[pass.Fset.Position(pos).Line]; ok {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	// isArena: the expression is slice-typed and its storage root is the
	// receiver's arena.
	isArena := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		if _, isSlice := tv.Type.Underlying().(*types.Slice); !isSlice {
			return false
		}
		return arenaFieldRooted(info, e, recvObj, rooted)
	}

	// Composite literals that are return operands express the hand-out
	// idiom and are exempt.
	returnLits := map[*ast.CompositeLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if lit, ok := m.(*ast.CompositeLit); ok {
					returnLits[lit] = true
				}
				return true
			})
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			if isArena(x.Value) {
				report(x.Pos(), "arena-rooted slice sent over a channel from %s: the arena is overwritten on the next packet — copy into a fresh buffer first, or waive with //cic:alloc-ok", fn.Name.Name)
			}
		case *ast.CompositeLit:
			if returnLits[x] {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if isArena(val) {
					report(val.Pos(), "arena-rooted slice stored into a composite literal in %s: the value outlives the arena's reuse cycle — copy it, return it directly, or waive with //cic:alloc-ok", fn.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for i, lh := range x.Lhs {
				if i >= len(x.Rhs) && len(x.Rhs) != 1 {
					break
				}
				rh := x.Rhs[0]
				if i < len(x.Rhs) {
					rh = x.Rhs[i]
				}
				if !isArena(rh) {
					continue
				}
				if root := escapingStoreRoot(info, lh, recvObj, params); root != "" {
					report(x.Pos(), "arena-rooted slice stored into %s in %s: the destination escapes the arena's reuse cycle — copy it first, or waive with //cic:alloc-ok", root, fn.Name.Name)
				}
			}
		}
		return true
	})
}

// escapingStoreRoot names the escaping destination of a store ("" when
// the destination is local). Stores through the receiver (save-back)
// and into plain locals stay inside the arena's owner; stores rooted in
// a parameter or a package-level variable hand the alias to the caller.
func escapingStoreRoot(info *types.Info, lhs ast.Expr, recvObj types.Object, params map[types.Object]bool) string {
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
	case *ast.Ident:
		// A direct assignment to a package-level variable pins the alias
		// beyond the call; local idents are plain local stores.
		if v, ok := info.Uses[l].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "package variable " + v.Name()
		}
		return ""
	default:
		return "" // blank or complex: local store
	}
	rootID, ok := ast.Unparen(rootExpr(lhs)).(*ast.Ident)
	if !ok {
		return ""
	}
	obj := info.Uses[rootID]
	if obj == nil {
		obj = info.Defs[rootID]
	}
	if obj == nil || obj == recvObj {
		return ""
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	switch {
	case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
		return "package variable " + v.Name()
	case params[v]:
		return "parameter " + v.Name()
	}
	return ""
}

// fieldRootedVars computes (to a fixpoint) the local variables whose
// storage aliases the receiver's arena fields: seeded empty, a variable
// joins when assigned from a receiver-field-rooted slice expression.
// It also returns fn's parameter set for escape classification.
func fieldRootedVars(info *types.Info, fn *ast.FuncDecl, recvObj types.Object) (rooted, params map[types.Object]bool) {
	params = map[types.Object]bool{}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	rooted = map[types.Object]bool{}
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
					if i < len(x.Rhs) && arenaFieldRooted(info, x.Rhs[i], recvObj, rooted) {
						mark(lhsObj(lh))
					}
				}
			case *ast.ValueSpec:
				for i, name := range x.Names {
					if i < len(x.Values) && arenaFieldRooted(info, x.Values[i], recvObj, rooted) {
						mark(info.Defs[name])
					}
				}
			}
			return true
		})
	}
	return rooted, params
}

// arenaFieldRooted reports whether the expression's storage root is a
// field of the receiver (directly or through a variable in the rooted
// set). Unlike hotpropagate's arenaRooted, call results and parameters do
// not count — only the receiver's own arena matters for escapes.
func arenaFieldRooted(info *types.Info, e ast.Expr, recvObj types.Object, rooted map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			rootID, ok := ast.Unparen(rootExpr(x)).(*ast.Ident)
			if !ok {
				return false
			}
			obj := info.Uses[rootID]
			if obj == nil {
				obj = info.Defs[rootID]
			}
			return obj != nil && (obj == recvObj || rooted[obj])
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
					e = x.Args[0]
					continue
				}
			}
			return false
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
