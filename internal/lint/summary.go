package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// summary is the transitive fact set computed for each function node.
// Facts are seeded from the function's own body ("base facts") and then
// propagated over call edges to a fixed point, so recursion cycles
// converge and a fact buried arbitrarily deep in the call graph is
// visible at every caller.
type summary struct {
	// wallClock: the function (or a transitive callee) reads the wall
	// clock, sleeps, or starts a wall-clock timer. Base facts at sites
	// carrying an //ecglint:allow detclock directive are excluded: the
	// annotation sanctions the whole path through the function.
	wallClock bool
	wallVia   string // direct witness ("time.Now"), "" when propagated
	// blocks: the function (or a transitive callee reached outside any
	// function literal or go statement) can park on a channel operation,
	// a select without default, or a sync.WaitGroup/Cond wait.
	blocks   bool
	blockVia string
	// spawnsGoroutine: the function (or a transitive callee) starts a
	// goroutine.
	spawnsGoroutine bool
	// returnsAtomic: the function returns a value loaded from (or
	// swapped out of) an atomic.Pointer/atomic.Value publish site.
	returnsAtomic bool
	// mutates records, receiver first, which parameters the function
	// writes through in a caller-visible way (pointer dereference, or an
	// index into slice/map backing storage), directly or transitively.
	mutates []bool
}

// clockExemptPackages are never wall-clock tainted: their wall-clock use
// is a deliberate side channel (stage spans, trace stamps) that
// simulation results never read back. Matching mirrors simPackages.
var clockExemptPackages = map[string]bool{
	"obs": true,
}

func clockExempt(pkg *Package) bool {
	return clockExemptPackages[pathTail(pkg.Path)] || clockExemptPackages[pkg.Types.Name()]
}

// collectBaseFacts seeds n's summary from its own body.
func (p *program) collectBaseFacts(n *funcNode) {
	n.params = make(map[types.Object]int)
	sig := n.fn.Type().(*types.Signature)
	pos := 0
	if recv := sig.Recv(); recv != nil {
		n.params[recv] = pos
		pos++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		n.params[sig.Params().At(i)] = pos
		pos++
	}
	n.summary.mutates = make([]bool, pos)

	// Source intervals that change how an operation is classified.
	var lits, gos, nbSelects []posRange
	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.FuncLit:
			lits = append(lits, posRange{v.Pos(), v.End()})
		case *ast.GoStmt:
			gos = append(gos, posRange{v.Pos(), v.End()})
		case *ast.SelectStmt:
			if selectHasDefault(v) {
				nbSelects = append(nbSelects, posRange{v.Pos(), v.End()})
			}
		}
		return true
	})
	// offStack: the op runs outside the caller's synchronous frame
	// (inside a closure or a spawned goroutine), so it cannot block the
	// caller. nonBlocking: inside a select with a default clause.
	offStack := func(pos token.Pos) bool { return inAny(lits, pos) || inAny(gos, pos) }
	nonBlocking := func(pos token.Pos) bool { return inAny(nbSelects, pos) }

	setBlocks := func(node ast.Node, via string) {
		if n.summary.blocks {
			return
		}
		if p.sup != nil && p.sup.suppressed(n.pkg.Fset.Position(node.Pos()), "lockedsend") {
			return
		}
		n.summary.blocks = true
		n.summary.blockVia = via
	}

	loaded := make(map[types.Object]bool) // vars holding atomic-load results

	ast.Inspect(n.decl.Body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.SelectorExpr:
			if bannedClock[v.Sel.Name] && isPackage(n.pkg, v.X, "time") && !clockExempt(n.pkg) {
				if p.sup == nil || !p.sup.suppressed(n.pkg.Fset.Position(v.Pos()), "detclock") {
					if !n.summary.wallClock {
						n.summary.wallClock = true
						n.summary.wallVia = "time." + v.Sel.Name
					}
				}
			}
		case *ast.SendStmt:
			if !offStack(v.Pos()) && !nonBlocking(v.Pos()) {
				setBlocks(v, "channel send")
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !offStack(v.Pos()) && !nonBlocking(v.Pos()) {
				setBlocks(v, "channel receive")
			}
		case *ast.SelectStmt:
			if !selectHasDefault(v) && !offStack(v.Pos()) && !nonBlocking(v.Pos()) {
				setBlocks(v, "blocking select")
			}
		case *ast.RangeStmt:
			if isChanType(n.pkg.Info.TypeOf(v.X)) && !offStack(v.Pos()) {
				setBlocks(v, "range over channel")
			}
		case *ast.GoStmt:
			if !inAny(lits, v.Pos()) {
				n.summary.spawnsGoroutine = true
			}
		case *ast.CallExpr:
			if fn := calledFunc(n.pkg, v); fn != nil && blockingWaits[fn.FullName()] {
				if !offStack(v.Pos()) {
					setBlocks(v, fn.FullName())
				}
			}
		case *ast.AssignStmt:
			p.recordMutations(n, v.Lhs)
			// Track vars defined from an atomic load for returnsAtomic.
			if len(v.Lhs) == len(v.Rhs) {
				for i, rhs := range v.Rhs {
					if id, ok := v.Lhs[i].(*ast.Ident); ok && isAtomicLoad(n.pkg, rhs) {
						if obj := n.pkg.Info.Defs[id]; obj != nil {
							loaded[obj] = true
						} else if obj := n.pkg.Info.Uses[id]; obj != nil {
							loaded[obj] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			p.recordMutations(n, []ast.Expr{v.X})
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if isAtomicLoad(n.pkg, res) {
					n.summary.returnsAtomic = true
					continue
				}
				if id, ok := unparen(res).(*ast.Ident); ok {
					if obj := n.pkg.Info.Uses[id]; obj != nil && loaded[obj] {
						n.summary.returnsAtomic = true
					}
					continue
				}
				if call, ok := unparen(res).(*ast.CallExpr); ok {
					n.retCallees = append(n.retCallees, p.resolve(n.pkg, call)...)
				}
			}
		}
		return true
	})
}

// recordMutations marks receiver/parameter positions written through in
// a caller-visible way by the assignment targets lhs: the root of the
// target chain is a parameter, the target is not the bare parameter
// variable itself, and the chain passes through a pointer dereference or
// an index into slice/map backing storage (a plain field write on a
// value receiver mutates only the callee's copy and is ignored).
func (p *program) recordMutations(n *funcNode, lhs []ast.Expr) {
	for _, l := range lhs {
		root := rootIdent(l)
		if root == nil {
			continue
		}
		obj := n.pkg.Info.Uses[root]
		if obj == nil {
			continue
		}
		idx, isParam := n.params[obj]
		if !isParam {
			continue
		}
		if _, bare := unparen(l).(*ast.Ident); bare {
			continue // reassigning the parameter variable: callee-local
		}
		if callerVisibleWrite(n.pkg, l, obj) {
			n.summary.mutates[idx] = true
		}
	}
}

// callerVisibleWrite reports whether writing through target mutates
// storage the caller can observe: the chain from the parameter root
// passes through a pointer (explicit *p or an implicit pointer-typed
// prefix) or indexes into a slice or map.
func callerVisibleWrite(pkg *Package, target ast.Expr, param types.Object) bool {
	for e := target; ; {
		switch v := unparen(e).(type) {
		case *ast.Ident:
			return false // chain exhausted without crossing a pointer/index
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if t := pkg.Info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					return true
				}
			}
			e = v.X
		case *ast.IndexExpr:
			if t := pkg.Info.TypeOf(v.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					return true
				}
			}
			e = v.X
		default:
			return false
		}
	}
}

// isRefType reports whether t shares backing storage when copied.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// atomicPublishTypes are the sync/atomic types whose Load/Store/Swap
// sites publish values that must be treated as immutable afterwards.
var atomicPublishTypes = map[string]bool{"Pointer": true, "Value": true}

// atomicPublishRecv reports whether expr is an atomic.Pointer[T] or
// atomic.Value (possibly through a pointer), the receiver shape of a
// publish site.
func atomicPublishRecv(pkg *Package, expr ast.Expr) bool {
	t := pkg.Info.TypeOf(expr)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" &&
		atomicPublishTypes[obj.Name()]
}

// isAtomicLoad reports whether expr is (or unwraps to) a call that reads
// a published value out of an atomic.Pointer/Value: h.Load() or
// h.Swap(x), possibly behind selectors, indexes, or a type assertion
// (box.Load().(*T)).
func isAtomicLoad(pkg *Package, expr ast.Expr) bool {
	for {
		switch v := unparen(expr).(type) {
		case *ast.CallExpr:
			sel, ok := unparen(v.Fun).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			if (sel.Sel.Name == "Load" || sel.Sel.Name == "Swap") && atomicPublishRecv(pkg, sel.X) {
				return true
			}
			return false
		case *ast.SelectorExpr:
			expr = v.X
		case *ast.IndexExpr:
			expr = v.X
		case *ast.TypeAssertExpr:
			expr = v.X
		default:
			return false
		}
	}
}

// propagate closes the summaries over the call graph (fixed point, so
// mutual recursion converges: facts only ever switch from false to
// true, bounding the iteration count).
func (p *program) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range p.nodes {
			for _, e := range n.edges {
				c := e.callee
				if !n.summary.wallClock && !clockExempt(n.pkg) &&
					c.summary.wallClock && !clockExempt(c.pkg) {
					n.summary.wallClock = true
					changed = true
				}
				if !n.summary.blocks && !e.inFuncLit && !e.inGo && c.summary.blocks {
					// A suppressed call site sanctions the transitive path.
					if p.sup == nil || !p.sup.suppressed(n.pkg.Fset.Position(e.call.Pos()), "lockedsend") {
						n.summary.blocks = true
						changed = true
					}
				}
				if !n.summary.spawnsGoroutine && !e.inFuncLit && c.summary.spawnsGoroutine {
					n.summary.spawnsGoroutine = true
					changed = true
				}
				if p.propagateMutates(n, e) {
					changed = true
				}
			}
			if !n.summary.returnsAtomic {
				for _, c := range n.retCallees {
					if c.summary.returnsAtomic {
						n.summary.returnsAtomic = true
						changed = true
						break
					}
				}
			}
		}
	}
}

// propagateMutates maps e's arguments onto n's parameters: passing a
// parameter (bare identifier) into a callee position the callee mutates
// makes n mutate that parameter too. Receiver args map to the callee's
// receiver position; variadic overflow maps onto the variadic slot.
func (p *program) propagateMutates(n *funcNode, e callEdge) bool {
	g := e.callee
	if len(g.summary.mutates) == 0 {
		return false
	}
	changed := false
	mark := func(argExpr ast.Expr, gpos int) {
		if gpos >= len(g.summary.mutates) {
			gpos = len(g.summary.mutates) - 1 // variadic overflow
		}
		if gpos < 0 || !g.summary.mutates[gpos] {
			return
		}
		id, ok := unparen(argExpr).(*ast.Ident)
		if !ok {
			return
		}
		obj := n.pkg.Info.Uses[id]
		if obj == nil {
			return
		}
		if npos, ok := n.params[obj]; ok && !n.summary.mutates[npos] {
			n.summary.mutates[npos] = true
			changed = true
		}
	}
	off := 0
	recv := g.fn.Type().(*types.Signature).Recv()
	if recv != nil {
		off = 1
		if sel, ok := unparen(e.call.Fun).(*ast.SelectorExpr); ok {
			mark(sel.X, 0)
		}
	}
	for i, arg := range e.call.Args {
		mark(arg, i+off)
	}
	return changed
}

// mutatesArg reports whether calling n with a value at callee position
// pos (receiver first) writes through it in a caller-visible way.
func (n *funcNode) mutatesArg(pos int) bool {
	if pos >= len(n.summary.mutates) {
		pos = len(n.summary.mutates) - 1
	}
	return pos >= 0 && n.summary.mutates[pos]
}

// wallWitness renders a deterministic example path from n to a
// wall-clock read, for findings ("a.Helper → time.Now").
func (p *program) wallWitness(n *funcNode) string {
	return p.witness(n, p.wallMemo, make(map[*funcNode]bool),
		func(s *summary) (bool, string) { return s.wallClock, s.wallVia },
		func(c *funcNode) bool { return c.summary.wallClock && !clockExempt(c.pkg) })
}

// blockWitness renders a deterministic example path from n to a
// blocking operation.
func (p *program) blockWitness(n *funcNode) string {
	return p.witness(n, p.blockMemo, make(map[*funcNode]bool),
		func(s *summary) (bool, string) { return s.blocks, s.blockVia },
		func(c *funcNode) bool { return c.summary.blocks })
}

// witness walks tainted edges in deterministic (source) order, memoized,
// cutting cycles by skipping in-progress nodes.
func (p *program) witness(n *funcNode, memo map[*funcNode]string, busy map[*funcNode]bool,
	direct func(*summary) (bool, string), tainted func(*funcNode) bool) string {
	if got, ok := memo[n]; ok {
		return got
	}
	if _, via := direct(&n.summary); via != "" {
		memo[n] = via
		return via
	}
	busy[n] = true
	defer delete(busy, n)
	for _, e := range n.edges {
		c := e.callee
		if !tainted(c) || busy[c] {
			continue
		}
		via := shortFuncName(c.fn) + " → " + p.witness(c, memo, busy, direct, tainted)
		memo[n] = via
		return via
	}
	return shortFuncName(n.fn)
}
