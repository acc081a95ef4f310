package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// obsHandleTypes are the internal/obs metric handle types whose nil
// value is the documented "observability disabled" fast path: a nil
// *Registry hands out nil handles, and every operation on a nil handle
// must be a no-op that never dereferences, reads the clock, or
// allocates. The instrumented hot paths rely on this costing exactly
// one pointer-nil test.
var obsHandleTypes = map[string]bool{
	"Counter":        true,
	"Gauge":          true,
	"Histogram":      true,
	"Registry":       true,
	"CounterVec":     true,
	"GaugeVec":       true,
	"FlightRecorder": true,
	"FlightScope":    true,
}

// NilSafeObs checks that every exported pointer-receiver method on an
// obs handle type guards the nil receiver before touching receiver
// state. Two receiver uses are allowed before (or without) the guard:
// comparing the receiver against nil, and delegating to another method
// of the same handle (which performs its own guard) — e.g.
// Counter.Inc's body `c.Add(1)`.
var NilSafeObs = &Analyzer{
	Name: "nilsafeobs",
	Doc: "exported methods on internal/obs handle types must be nil-receiver safe: " +
		"guard `if x == nil` (or delegate to a guarded method) before using receiver state, " +
		"so disabled observability stays a free no-op",
	Run: runNilSafeObs,
}

func runNilSafeObs(pass *Pass) error {
	if pass.Pkg.Name() != "obs" {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			recvType, recvObj := recvInfo(pass.Info, fn)
			if recvType == "" || !obsHandleTypes[recvType] {
				continue
			}
			if recvObj == nil {
				continue // unnamed receiver: trivially nil-safe
			}
			checkNilGuarded(pass, fn, recvType, recvObj)
		}
	}
	return nil
}

// recvInfo returns the named type of a pointer receiver (or "" for
// value receivers and non-obs shapes) plus the receiver variable.
func recvInfo(info *types.Info, fn *ast.FuncDecl) (string, types.Object) {
	if len(fn.Recv.List) != 1 {
		return "", nil
	}
	field := fn.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", nil // value receiver: a copy, nil cannot reach it
	}
	id, ok := ast.Unparen(star.X).(*ast.Ident)
	if !ok {
		return "", nil
	}
	var obj types.Object
	if len(field.Names) == 1 {
		obj = info.Defs[field.Names[0]]
	}
	return id.Name, obj
}

// checkNilGuarded walks the method body's top-level statements in
// order: statements before the nil guard may not use the receiver
// except for nil comparisons and method-call delegation; once a guard
// statement is seen, anything goes.
func checkNilGuarded(pass *Pass, fn *ast.FuncDecl, recvType string, recvObj types.Object) {
	for _, stmt := range fn.Body.List {
		if isNilGuard(pass.Info, stmt, recvObj) {
			return
		}
		if pos, found := rawReceiverUse(pass.Info, stmt, recvObj); found {
			pass.Reportf(pos, "exported obs handle method (*%s).%s uses the receiver before a nil guard: nil handles must be free no-ops", recvType, fn.Name.Name)
			return
		}
	}
	// No guard and no raw use: the method only delegates (or ignores
	// the receiver), which is nil-safe.
}

// isNilGuard reports whether stmt is `if recv == nil { ... return }`
// (possibly `recv == nil || more...`) with a body that bails out.
func isNilGuard(info *types.Info, stmt ast.Stmt, recvObj types.Object) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || len(ifs.Body.List) == 0 {
		return false
	}
	if _, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	return condHasNilCheck(info, ifs.Cond, recvObj)
}

func condHasNilCheck(info *types.Info, cond ast.Expr, recvObj types.Object) bool {
	switch x := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if x.Op == token.LOR {
			return condHasNilCheck(info, x.X, recvObj) || condHasNilCheck(info, x.Y, recvObj)
		}
		if x.Op != token.EQL {
			return false
		}
		return isRecvNilCompare(info, x, recvObj)
	}
	return false
}

func isRecvNilCompare(info *types.Info, bin *ast.BinaryExpr, recvObj types.Object) bool {
	isRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == recvObj
	}
	isNil := func(e ast.Expr) bool { return info.Types[e].IsNil() }
	return (isRecv(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isRecv(bin.Y))
}

// rawReceiverUse finds the first use of the receiver inside stmt that
// is neither a nil comparison nor the receiver position of a method
// call (delegation to a method that does its own guard).
func rawReceiverUse(info *types.Info, stmt ast.Stmt, recvObj types.Object) (token.Pos, bool) {
	allowed := map[*ast.Ident]bool{}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == recvObj {
					if _, isMethod := info.Uses[sel.Sel].(*types.Func); isMethod {
						allowed[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if id, ok := ast.Unparen(side).(*ast.Ident); ok && info.Uses[id] == recvObj {
						allowed[id] = true
					}
				}
			}
		}
		return true
	})
	var pos token.Pos
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == recvObj && !allowed[id] {
			pos, found = id.Pos(), true
		}
		return !found
	})
	return pos, found
}
