package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the whole-program layer under the flow-sensitive
// analyzers (hotpropagate, goroutineleak, lockdiscipline): a module-wide
// call graph built from the same go/ast + go/types information the
// per-package analyzers use. Nodes are declared functions and methods of
// the loaded packages; edges resolve
//
//   - static calls and method calls on concrete receivers directly,
//   - interface method calls conservatively, to every method of a
//     program type that implements the interface, and
//   - func-value calls conservatively, to every address-taken program
//     function whose signature matches the call site.
//
// Calls inside function literals are attributed to the enclosing
// declaration: the literal executes with (at worst) the obligations of
// the function that created it, which is the sound direction for every
// analyzer built on top. Standard-library callees have no node and no
// edges; the analyzers treat them by name/type where they matter.

// Program is the whole-module view handed to program-level analyzers:
// every loaded package plus the lazily built call graph.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package

	cg *CallGraph
}

// NewProgram wraps the loaded packages (they must share one FileSet, as
// Load guarantees).
func NewProgram(pkgs []*Package) *Program {
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	return &Program{Fset: fset, Pkgs: pkgs}
}

// CallGraph builds (once) and returns the module call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// FuncNode is one declared function or method of the program.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot records a `//cic:hotpath` doc marker.
	Hot bool
	// AddrTaken records a reference outside call position (the function
	// is a candidate target of func-value calls).
	AddrTaken bool
	// Calls are the outgoing call sites, in source order.
	Calls []*CallSite
	// Callers are the incoming edges.
	Callers []*CallSite
}

// Name renders the node for diagnostics ("pkg.Func" / "pkg.(*T).Method").
func (n *FuncNode) Name() string {
	recv := funcSig(n.Obj).Recv()
	if recv == nil {
		return n.Pkg.Name + "." + n.Obj.Name()
	}
	t := recv.Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
		star = "*"
	}
	tn := "?"
	if named, ok := t.(*types.Named); ok {
		tn = named.Obj().Name()
	}
	return fmt.Sprintf("%s.(%s%s).%s", n.Pkg.Name, star, tn, n.Obj.Name())
}

// CallSite is one resolved call edge.
type CallSite struct {
	Caller *FuncNode
	Callee *FuncNode
	Pos    token.Pos
	// Dynamic marks interface-dispatch and func-value edges (the
	// conservative over-approximation), as opposed to static calls.
	Dynamic bool
}

// CallGraph indexes the program's functions and their call edges.
type CallGraph struct {
	// Nodes in deterministic (package, position) order.
	Nodes []*FuncNode

	byObj  map[*types.Func]*FuncNode
	byDecl map[*ast.FuncDecl]*FuncNode
}

// NodeOf resolves a *types.Func to its program node (nil for functions
// outside the loaded packages).
func (cg *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if n := cg.byObj[fn]; n != nil {
		return n
	}
	return cg.byObj[fn.Origin()]
}

// NodeOfDecl resolves a declaration to its node.
func (cg *CallGraph) NodeOfDecl(d *ast.FuncDecl) *FuncNode { return cg.byDecl[d] }

func buildCallGraph(p *Program) *CallGraph {
	cg := &CallGraph{
		byObj:  map[*types.Func]*FuncNode{},
		byDecl: map[*ast.FuncDecl]*FuncNode{},
	}

	// Pass 1: nodes, plus the concrete named types used to resolve
	// interface dispatch.
	var named []types.Type
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if _, ok := tn.Type().Underlying().(*types.Interface); !ok {
					named = append(named, tn.Type())
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Hot: isHotpath(fd)}
				cg.byObj[obj] = n
				cg.byDecl[fd] = n
				cg.Nodes = append(cg.Nodes, n)
			}
		}
	}
	sort.Slice(cg.Nodes, func(i, j int) bool { return cg.Nodes[i].Decl.Pos() < cg.Nodes[j].Decl.Pos() })

	// Pass 2: edges and address-taken marks.
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := cg.byDecl[fd]
				if caller == nil {
					continue
				}
				cg.resolveBody(pkg, caller, fd.Body, named)
			}
		}
	}
	for _, n := range cg.Nodes {
		for _, site := range n.Calls {
			site.Callee.Callers = append(site.Callee.Callers, site)
		}
	}
	return cg
}

// resolveBody records every call edge and address-taken reference inside
// one declaration body.
func (cg *CallGraph) resolveBody(pkg *Package, caller *FuncNode, body *ast.BlockStmt, named []types.Type) {
	callFuns := map[ast.Expr]bool{} // expressions in call-operator position
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fun := ast.Unparen(call.Fun)
			callFuns[fun] = true
			// x.m() also visits the bare m below: it is the callee, not
			// a method value.
			if sel, ok := fun.(*ast.SelectorExpr); ok {
				callFuns[sel.Sel] = true
			}
		}
		return true
	})

	addEdge := func(callee *FuncNode, pos token.Pos, dynamic bool) {
		if callee == nil {
			return
		}
		caller.Calls = append(caller.Calls, &CallSite{Caller: caller, Callee: callee, Pos: pos, Dynamic: dynamic})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(x.Fun)
			// Conversions and builtins are not calls we track.
			if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
				return true
			}
			if id, ok := fun.(*ast.Ident); ok {
				if _, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					return true
				}
			}
			if fn := calleeFunc(pkg.Info, x); fn != nil {
				if iface := ifaceRecv(fn); iface != nil {
					// Interface dispatch: edge to every implementing
					// program method with this name.
					for _, impl := range implementors(cg, named, iface, fn.Name()) {
						addEdge(impl, x.Pos(), true)
					}
					return true
				}
				addEdge(cg.NodeOf(fn), x.Pos(), false)
				return true
			}
			// Func-value call: edge to every address-taken or literal-free
			// candidate with an identical signature.
			if sig := callSignature(pkg.Info, fun); sig != nil {
				for _, cand := range cg.Nodes {
					if cand.AddrTaken && sameSignature(funcSig(cand.Obj), sig) {
						addEdge(cand, x.Pos(), true)
					}
				}
			}
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok && !callFuns[ast.Expr(x)] {
				if node := cg.NodeOf(fn); node != nil {
					node.AddrTaken = true
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[x.Sel].(*types.Func); ok && !callFuns[ast.Expr(x)] {
				if node := cg.NodeOf(fn); node != nil {
					node.AddrTaken = true
				}
			}
		}
		return true
	})
}

// ifaceRecv returns the interface type a method is declared on, nil for
// concrete methods and plain functions.
func ifaceRecv(fn *types.Func) *types.Interface {
	recv := funcSig(fn).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// implementors finds the program methods named name on types satisfying
// iface (through a value or pointer receiver).
func implementors(cg *CallGraph, named []types.Type, iface *types.Interface, name string) []*FuncNode {
	var out []*FuncNode
	for _, t := range named {
		pt := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(pt, iface) {
			continue
		}
		sel := types.NewMethodSet(pt).Lookup(nil, name)
		if sel == nil {
			// Unexported interface methods need the declaring package;
			// the nil-package lookup covers the exported ones, which is
			// every interface the analyzers care about.
			continue
		}
		if m, ok := sel.Obj().(*types.Func); ok {
			if node := cg.NodeOf(m); node != nil {
				out = append(out, node)
			}
		}
	}
	return out
}

// callSignature is the static function signature of a call-expression
// operand (nil when the operand is not func-typed).
func callSignature(info *types.Info, fun ast.Expr) *types.Signature {
	tv, ok := info.Types[fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// sameSignature compares parameter and result tuples, ignoring the
// receiver (a method value's signature drops it).
func sameSignature(a, b *types.Signature) bool {
	return types.Identical(dropRecv(a), dropRecv(b))
}

func dropRecv(s *types.Signature) *types.Signature {
	if s.Recv() == nil {
		return s
	}
	return types.NewSignatureType(nil, nil, nil, s.Params(), s.Results(), s.Variadic())
}

// Reachable computes the transitive closure from the given roots,
// skipping edges for which skip returns true. The returned map carries,
// for every reached node, the call path back to its root (the root maps
// to itself with an empty via).
type reachInfo struct {
	root *FuncNode
	via  *CallSite // first edge on the path root → ... → node (nil at roots)
	from *FuncNode // the node that reached this one
}

func (cg *CallGraph) reachableFrom(roots []*FuncNode, skip func(*CallSite) bool) map[*FuncNode]*reachInfo {
	reached := map[*FuncNode]*reachInfo{}
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if reached[r] == nil {
			reached[r] = &reachInfo{root: r}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, site := range n.Calls {
			if skip != nil && skip(site) {
				continue
			}
			if reached[site.Callee] != nil {
				continue
			}
			reached[site.Callee] = &reachInfo{root: reached[n].root, via: site, from: n}
			queue = append(queue, site.Callee)
		}
	}
	return reached
}

// pathTo renders the call chain from a node's root down to it, for
// diagnostics ("a → b → c").
func pathTo(reached map[*FuncNode]*reachInfo, n *FuncNode) string {
	var parts []string
	for cur := n; cur != nil; {
		parts = append(parts, cur.Name())
		info := reached[cur]
		if info == nil || info.from == nil {
			break
		}
		cur = info.from
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " → ")
}

// funcSig is fn.Signature() spelled for the module's go1.22 language
// level (the method itself is a go1.23 addition).
func funcSig(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}
