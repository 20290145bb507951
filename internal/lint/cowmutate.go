package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CowMutate flags in-place mutation of values published through an
// atomic.Pointer or atomic.Value — the copy-on-write discipline the
// serving layer's published plan (Engine.epoch, whose plans each
// maintenance round replaces rather than edits) depends on. Once a
// pointer has been handed to Store/Swap, or read back out with
// Load/Swap, every reader may hold it concurrently: writing through it
// races those readers and retroactively edits plans snapshots have
// already exposed. The sanctioned shape is
// load → clone → mutate the clone → store; a clone/copy call on the
// path breaks the taint.
//
// The analysis is flow-lite and position-aware within each function:
// a value is tainted from the source position onward, so building a
// fresh value and mutating it before the Store that publishes it is
// clean, while mutating it after is not. Mutation through calls is
// caught with the engine's mutates-parameter summaries: passing a
// published value to a helper that writes through that parameter is the
// same bug one frame removed.
type CowMutate struct{}

func (CowMutate) Name() string { return "cowmutate" }

func (CowMutate) Doc() string {
	return "no writes through values published via atomic.Pointer/atomic.Value unless cloned on the path"
}

func (CowMutate) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, cowCheckFunc(pkg, fd)...)
		}
	}
	return out
}

// cowCheckFunc runs the two-pass taint analysis over one function body.
func cowCheckFunc(pkg *Package, fd *ast.FuncDecl) []Finding {
	// Pass 1: find taint sources and propagate through local aliases.
	// taintPos records the earliest position at which each object holds
	// published (shared) data; writes before that position are the
	// pre-publication construction phase and stay clean.
	taintPos := make(map[types.Object]token.Pos)
	taint := func(id *ast.Ident, from token.Pos) {
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if old, ok := taintPos[obj]; !ok || from < old {
			taintPos[obj] = from
		}
	}
	// Alias propagation can chain (a := Load; b := a.Sub), so iterate to
	// a fixed point; bodies are small and chains are short.
	for changed := true; changed; {
		changed = false
		before := len(taintPos)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if len(v.Lhs) != len(v.Rhs) {
					return true
				}
				for i, rhs := range v.Rhs {
					id, ok := v.Lhs[i].(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					switch {
					case isAtomicLoad(pkg, rhs):
						taint(id, rhs.Pos())
					case returnsPublished(pkg, rhs):
						taint(id, rhs.Pos())
					case isCloneExpr(pkg, rhs):
						// clone breaks the taint: the result is fresh
					default:
						if root := rootIdent(rhs); root != nil {
							if obj := pkg.Info.Uses[root]; obj != nil {
								if from, ok := taintPos[obj]; ok && rhs.Pos() > from {
									taint(id, rhs.Pos())
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				// Publishing taints the argument from the call onward:
				// h.Store(next) / h.Swap(next) makes next shared.
				if sel, ok := unparen(v.Fun).(*ast.SelectorExpr); ok &&
					(sel.Sel.Name == "Store" || sel.Sel.Name == "Swap" ||
						sel.Sel.Name == "CompareAndSwap") &&
					atomicPublishRecv(pkg, sel.X) {
					for _, arg := range v.Args {
						if id, ok := unparen(arg).(*ast.Ident); ok {
							taint(id, v.Pos())
						}
					}
				}
			}
			return true
		})
		changed = len(taintPos) > before
	}
	if len(taintPos) == 0 {
		return nil
	}

	// Pass 2: flag post-taint writes through tainted values, and calls
	// that hand a tainted value to a parameter the callee mutates.
	var out []Finding
	tainted := func(e ast.Expr) (types.Object, bool) {
		root := rootIdent(e)
		if root == nil {
			return nil, false
		}
		obj := pkg.Info.Uses[root]
		if obj == nil {
			return nil, false
		}
		from, ok := taintPos[obj]
		return obj, ok && e.Pos() > from
	}
	report := func(n ast.Node, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(n.Pos()), Rule: "cowmutate", Message: msg})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, l := range v.Lhs {
				if _, bare := unparen(l).(*ast.Ident); bare {
					continue // rebinding the variable, not writing through it
				}
				if obj, ok := tainted(l); ok {
					report(l, "write to "+types.ExprString(l)+" mutates the atomically published value "+
						obj.Name()+"; clone it before mutating (copy-on-write)")
				}
			}
		case *ast.IncDecStmt:
			if _, bare := unparen(v.X).(*ast.Ident); bare {
				return true
			}
			if obj, ok := tainted(v.X); ok {
				report(v, "write to "+types.ExprString(v.X)+" mutates the atomically published value "+
					obj.Name()+"; clone it before mutating (copy-on-write)")
			}
		case *ast.CallExpr:
			out = append(out, cowCheckCall(pkg, v, tainted)...)
		}
		return true
	})
	return out
}

// cowCheckCall flags handing a tainted value to a callee that mutates
// the corresponding parameter (per the engine's transitive summaries).
// Clone-shaped callees are exempt: duplicating the value is exactly the
// sanctioned path.
func cowCheckCall(pkg *Package, call *ast.CallExpr, tainted func(ast.Expr) (types.Object, bool)) []Finding {
	if pkg.prog == nil || isCloneExpr(pkg, call) {
		return nil
	}
	var out []Finding
	for _, callee := range pkg.prog.resolve(pkg, call) {
		off := 0
		if callee.fn.Type().(*types.Signature).Recv() != nil {
			off = 1
			if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := unparen(sel.X).(*ast.Ident); ok && callee.mutatesArg(0) {
					if obj, isT := tainted(id); isT {
						out = append(out, Finding{Pos: pkg.Fset.Position(call.Pos()), Rule: "cowmutate",
							Message: "call to " + shortFuncName(callee.fn) + " mutates its receiver " + obj.Name() +
								", an atomically published value; clone it before mutating (copy-on-write)"})
					}
				}
			}
		}
		for i, arg := range call.Args {
			id, ok := unparen(arg).(*ast.Ident)
			if !ok || !callee.mutatesArg(i+off) {
				continue
			}
			if obj, isT := tainted(id); isT {
				out = append(out, Finding{Pos: pkg.Fset.Position(arg.Pos()), Rule: "cowmutate",
					Message: "passing the atomically published value " + obj.Name() + " to " +
						shortFuncName(callee.fn) + ", which mutates that parameter; clone it first (copy-on-write)"})
			}
		}
		break // one candidate suffices for a deterministic finding
	}
	return out
}

// returnsPublished reports whether expr is a call to a loaded function
// whose summary says it returns a value read from an atomic publish
// site (an Epoch()/Plan()-style accessor).
func returnsPublished(pkg *Package, expr ast.Expr) bool {
	call, ok := unparen(expr).(*ast.CallExpr)
	if !ok || pkg.prog == nil {
		return false
	}
	for _, callee := range pkg.prog.resolve(pkg, call) {
		if callee.summary.returnsAtomic {
			return true
		}
	}
	return false
}

// isCloneExpr reports whether expr is a call whose callee name marks it
// as producing a fresh copy (contains "clone" or "copy", matching the
// repo's cloneShallow/Clone/copyPlan naming).
func isCloneExpr(pkg *Package, expr ast.Expr) bool {
	call, ok := unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	var name string
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	name = strings.ToLower(name)
	return strings.Contains(name, "clone") || strings.Contains(name, "copy")
}
