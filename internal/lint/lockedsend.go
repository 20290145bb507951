package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockedSend flags channel operations and known-blocking calls made
// while a sync.Mutex or sync.RWMutex is held — the PR-4 race class: a
// blocking send under a lock deadlocks against any other path that
// needs the same lock to drain the channel, and an unsynchronized
// send/Close pair panics. Non-blocking sends (a select with a default
// clause) are allowed. A close() under a
// lock is flagged too: it is only sound when every send path also runs
// under that lock, which deserves an explicit //ecglint:allow audit
// trail at the close site.
type LockedSend struct{}

func (LockedSend) Name() string { return "lockedsend" }

func (LockedSend) Doc() string {
	return "no channel send/receive/close or blocking wait while holding a sync (RW)Mutex"
}

// lockMethods maps the fully-qualified sync locking methods to whether
// they acquire (true) or release (false).
var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":      true,
	"(*sync.Mutex).Unlock":    false,
	"(*sync.RWMutex).Lock":    true,
	"(*sync.RWMutex).Unlock":  false,
	"(*sync.RWMutex).RLock":   true,
	"(*sync.RWMutex).RUnlock": false,
}

// blockingWaits are non-channel calls that block until another
// goroutine acts; holding a lock across them invites deadlock.
var blockingWaits = map[string]bool{
	"(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait":      true,
}

func (LockedSend) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				out = append(out, scanLockRegions(pkg, body.List)...)
			}
			return true
		})
	}
	return out
}

// scanLockRegions walks a statement list looking for X.Lock() calls and
// checks every statement between the Lock and its matching same-level
// Unlock (or, for `defer X.Unlock()`, the rest of the list) for
// blocking operations. Statement lists nested inside the region are
// covered by the region check itself; lists outside any region recurse.
func scanLockRegions(pkg *Package, stmts []ast.Stmt) []Finding {
	var out []Finding
	for i := 0; i < len(stmts); i++ {
		lockExpr, acquired := lockCall(pkg, stmts[i])
		if !acquired {
			// Not a region start here; recurse into nested lists.
			for _, nested := range nestedLists(stmts[i]) {
				out = append(out, scanLockRegions(pkg, nested)...)
			}
			continue
		}
		scopePos := pkg.Fset.Position(stmts[i].Pos())
		end := len(stmts)
		for j := i + 1; j < len(stmts); j++ {
			if rel, ok := unlockCall(pkg, stmts[j]); ok && rel == lockExpr {
				end = j
				break
			}
		}
		for j := i + 1; j < end; j++ {
			out = append(out, checkRegionStmt(pkg, stmts[j], lockExpr, scopePos)...)
		}
		i = end // resume after the Unlock (or at list end)
	}
	return out
}

// lockCall reports whether stmt is `X.Lock()` / `X.RLock()` on a sync
// mutex, returning the printed lock expression.
func lockCall(pkg *Package, stmt ast.Stmt) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	return syncLockOp(pkg, es.X, true)
}

// unlockCall reports whether stmt releases a sync mutex, either
// directly or via defer (a deferred unlock means the lock is held for
// the rest of the enclosing list, so it never terminates a region).
func unlockCall(pkg *Package, stmt ast.Stmt) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	expr, ok := syncLockOp(pkg, es.X, false)
	return expr, ok
}

// syncLockOp matches call against the sync lock/unlock method set.
func syncLockOp(pkg *Package, expr ast.Expr, wantAcquire bool) (string, bool) {
	call, ok := unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	acquire, known := lockMethods[fn.FullName()]
	if !known || acquire != wantAcquire {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// nestedLists returns the statement lists directly nested in stmt
// (if/else bodies, loop bodies, switch and select clauses) so region
// scanning can recurse outside lock regions.
func nestedLists(stmt ast.Stmt) [][]ast.Stmt {
	var lists [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		lists = append(lists, s.List)
	case *ast.IfStmt:
		lists = append(lists, s.Body.List)
		if s.Else != nil {
			lists = append(lists, nestedLists(s.Else)...)
		}
	case *ast.ForStmt:
		lists = append(lists, s.Body.List)
	case *ast.RangeStmt:
		lists = append(lists, s.Body.List)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lists = append(lists, cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lists = append(lists, cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lists = append(lists, cc.Body)
			}
		}
	case *ast.LabeledStmt:
		lists = append(lists, nestedLists(s.Stmt)...)
	}
	return lists
}

// checkRegionStmt reports blocking operations anywhere under stmt,
// which executes while lockExpr is held. Function literals are skipped
// (they run in their own context); selects with a default clause are
// non-blocking by construction and are skipped whole.
func checkRegionStmt(pkg *Package, stmt ast.Stmt, lockExpr string, scopePos token.Position) []Finding {
	var out []Finding
	report := func(n ast.Node, msg string) {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(n.Pos()),
			ScopePos: scopePos,
			Rule:     "lockedsend",
			Message:  msg + " while holding " + lockExpr,
		})
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // spawned goroutine does not hold the caller's lock
		case *ast.SelectStmt:
			if selectHasDefault(v) {
				return false // non-blocking by construction
			}
			report(v, "blocking select over channels")
			return false
		case *ast.SendStmt:
			report(v, "channel send "+types.ExprString(v.Chan)+" <- ...")
		case *ast.RangeStmt:
			if isChanType(pkg.Info.TypeOf(v.X)) {
				report(v, "range over channel "+types.ExprString(v.X))
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				report(v, "channel receive <-"+types.ExprString(v.X))
			}
		case *ast.CallExpr:
			if isCloseOfChannel(pkg, v) {
				report(v, "close("+types.ExprString(v.Args[0])+")")
			} else if fn := calledFunc(pkg, v); fn != nil && blockingWaits[fn.FullName()] {
				report(v, fn.FullName())
			} else if callee := blockingCallee(pkg, v); callee != nil {
				report(v, "call to "+shortFuncName(callee.fn)+" which may block ("+
					pkg.prog.blockWitness(callee)+")")
			}
		}
		return true
	})
	return out
}

// blockingCallee resolves call through the interprocedural engine and
// returns the first candidate callee whose transitive summary says it
// can block, or nil. Candidates come back in deterministic declaration
// order, so the witness chain is stable across runs.
func blockingCallee(pkg *Package, call *ast.CallExpr) *funcNode {
	if pkg.prog == nil {
		return nil
	}
	for _, cand := range pkg.prog.resolve(pkg, call) {
		if cand.summary.blocks {
			return cand
		}
	}
	return nil
}

// selectHasDefault reports whether sel has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isCloseOfChannel reports whether call is the builtin close on a
// channel-typed argument.
func isCloseOfChannel(pkg *Package, call *ast.CallExpr) bool {
	fn, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "close" || len(call.Args) != 1 {
		return false
	}
	if b, ok := pkg.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "close" {
		return false
	}
	t := pkg.Info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// calledFunc resolves the method or function a call invokes.
func calledFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
