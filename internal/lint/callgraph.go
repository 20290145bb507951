package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the interprocedural layer the v2 analyzers run on: a
// static call graph over every function and method declared in the
// loaded packages, with method-set resolution for concrete receiver
// types and types.Implements resolution for interface dispatch. Load
// checks every package in one type universe, so nodes are keyed by the
// declared *types.Func; a call to a method of an instantiated generic
// type resolves through Func.Origin to the declaration.
//
// Soundness limits (documented in DESIGN.md §9): calls through function
// values (fields, parameters, variables) produce no edge; interface
// dispatch keeps every loaded method whose receiver's pointer type
// implements the interface, or, for a generic receiver, the pointer type
// of one of its instantiations in the loaded packages, so it may add
// edges no run takes (fine for taint propagation) but misses a generic
// receiver instantiated only outside them; the standard library is
// opaque except for the known root sets (time.* wall-clock reads, sync
// blocking waits).

// program is the whole-run analysis state shared by every analyzer: the
// packages under analysis, the interprocedural call graph over their
// declared functions, and the transitive summaries computed from it.
type program struct {
	pkgs []*Package
	sup  *suppressions
	// funcs indexes every declared function/method.
	funcs map[*types.Func]*funcNode
	// nodes holds the same set in deterministic (package, position) order.
	nodes []*funcNode
	// methodsByName indexes declared methods for interface dispatch.
	methodsByName map[string][]*funcNode
	// instances lists the distinct instantiations of each generic type
	// in the loaded packages, in source order, for interface dispatch.
	instances map[*types.TypeName][]*types.Named
	// witness memos (computed post-fixpoint, deterministic edge order).
	wallMemo  map[*funcNode]string
	blockMemo map[*funcNode]string
}

// funcNode is one declared function or method with a body, plus its
// outgoing call edges and computed transitive summary.
type funcNode struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	edges   []callEdge
	summary summary
	// params maps receiver+parameter objects to their summary position
	// (receiver first), for mutates-parameter propagation.
	params map[types.Object]int
	// retCallees are resolved callees whose result this function returns
	// directly, for returns-atomic-load propagation.
	retCallees []*funcNode
}

// callEdge is one static call site inside a function's body.
type callEdge struct {
	callee *funcNode
	call   *ast.CallExpr
	// inFuncLit: the call sits inside a nested function literal, whose
	// execution context (goroutine, defer, callback) is not the caller's.
	inFuncLit bool
	// inGo: the call is spawned by a go statement.
	inGo bool
}

// newProgram builds the call graph and summaries over pkgs and installs
// a back-pointer on every package so analyzers can reach the engine.
func newProgram(pkgs []*Package, sup *suppressions) *program {
	p := &program{
		pkgs:          pkgs,
		sup:           sup,
		funcs:         make(map[*types.Func]*funcNode),
		methodsByName: make(map[string][]*funcNode),
		instances:     make(map[*types.TypeName][]*types.Named),
		wallMemo:      make(map[*funcNode]string),
		blockMemo:     make(map[*funcNode]string),
	}
	for _, pkg := range pkgs {
		pkg.prog = p
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{fn: fn, pkg: pkg, decl: fd}
				p.funcs[fn] = n
				p.nodes = append(p.nodes, n)
				if fd.Recv != nil {
					p.methodsByName[fn.Name()] = append(p.methodsByName[fn.Name()], n)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		p.collectInstances(pkg)
	}
	for _, n := range p.nodes {
		p.collectEdges(n)
		p.collectBaseFacts(n)
	}
	p.propagate()
	return p
}

// node returns the graph node for a resolved function, or nil. A
// method of an instantiated generic type maps to its declaration.
func (p *program) node(fn *types.Func) *funcNode {
	if fn == nil {
		return nil
	}
	return p.funcs[fn.Origin()]
}

// posRange is a half-open source interval used to classify call sites.
type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(pos token.Pos) bool { return pos > r.lo && pos < r.hi }

func inAny(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.contains(pos) {
			return true
		}
	}
	return false
}

// collectEdges records every statically resolvable call in n's body,
// flagging calls nested in function literals or go statements.
func (p *program) collectEdges(n *funcNode) {
	var lits, gos []posRange
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			lits = append(lits, posRange{v.Pos(), v.End()})
		case *ast.GoStmt:
			gos = append(gos, posRange{v.Pos(), v.End()})
		}
		return true
	})
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, callee := range p.resolve(n.pkg, call) {
			n.edges = append(n.edges, callEdge{
				callee:    callee,
				call:      call,
				inFuncLit: inAny(lits, call.Pos()),
				inGo:      inAny(gos, call.Pos()),
			})
		}
		return true
	})
}

// resolve maps a call expression to its candidate callee nodes: one node
// for a direct function or concrete-method call, every implementing
// declared method for an interface-dispatch call, nil for calls through
// function values or to functions outside the loaded packages.
func (p *program) resolve(pkg *Package, call *ast.CallExpr) []*funcNode {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			if n := p.node(fn); n != nil {
				return []*funcNode{n}
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return nil
		}
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return p.dispatch(iface, fn.Name())
			}
		}
		if n := p.node(fn); n != nil {
			return []*funcNode{n}
		}
	}
	return nil
}

// collectInstances records every instantiation of a generic type that
// pkg's source spells out, walking the files so the lists come out in
// source order.
func (p *program) collectInstances(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			named, ok := pkg.Info.Instances[id].Type.(*types.Named)
			if !ok {
				return true
			}
			obj := named.Obj()
			for _, seen := range p.instances[obj] {
				if types.Identical(seen, named) {
					return true
				}
			}
			p.instances[obj] = append(p.instances[obj], named)
			return true
		})
	}
}

// dispatch returns the declared methods a call through iface's method
// named method could reach: every loaded concrete method of that name
// whose receiver type, through a pointer so value methods count too,
// implements iface. A method of a generic type also counts when one of
// the type's loaded instantiations implements iface: func (Box[T]) Get() T
// never matches interface{ Get() int } as declared, but Box[int] does.
func (p *program) dispatch(iface *types.Interface, method string) []*funcNode {
	var out []*funcNode
	for _, cand := range p.methodsByName[method] {
		recv := cand.fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if p.implements(recv, iface) {
			out = append(out, cand)
		}
	}
	return out
}

// implements reports whether a pointer to recv, or to one of its loaded
// instantiations when recv is generic, implements iface.
func (p *program) implements(recv types.Type, iface *types.Interface) bool {
	if types.Implements(types.NewPointer(recv), iface) {
		return true
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() == 0 {
		return false
	}
	for _, inst := range p.instances[named.Obj()] {
		if types.Implements(types.NewPointer(inst), iface) {
			return true
		}
	}
	return false
}

// shortFuncName renders a function for findings: package-qualified with
// the import path shortened to its final segment.
func shortFuncName(fn *types.Func) string {
	full := fn.FullName()
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			full = strings.ReplaceAll(full, path, path[i+1:])
		}
	}
	return full
}

// sortFindings orders findings by (file, line, column, rule).
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
