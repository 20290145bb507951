package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrDrop flags the two ways this codebase has silently lost errors:
//
//  1. A select-with-default send whose payload carries an error field
//     and whose default clause is empty — the pre-fix events-channel
//     bug: when the channel is full the error vanishes with no counter,
//     log line, or eviction. A non-empty default (recording the drop)
//     or a receive from the same channel in the same function (the
//     evict-then-resend idiom) is the sanctioned shape.
//  2. `_ =` / `x, _ :=` discards of an error-typed result. Tests are
//     naturally exempt because the loader never parses _test.go files.
type ErrDrop struct{}

func (ErrDrop) Name() string { return "errdrop" }

func (ErrDrop) Doc() string {
	return "no silent drops of error-carrying payloads on full channels, no _ discards of error results"
}

func (ErrDrop) Run(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, errDropSelects(pkg, fd)...)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				out = append(out, errDiscards(pkg, as)...)
			}
			return true
		})
	}
	return out
}

// errDropSelects flags non-blocking sends of error-carrying payloads
// with an empty default clause and no same-channel receive in fd.
func errDropSelects(pkg *Package, fd *ast.FuncDecl) []Finding {
	// Channels this function also receives from (by printed expression):
	// dropping on those is the deliberate evict-then-resend idiom.
	received := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			received[types.ExprString(unparen(u.X))] = true
		}
		return true
	})
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok || !selectHasDefault(sel) {
			return true
		}
		var defaultEmpty bool
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				defaultEmpty = len(cc.Body) == 0
			}
		}
		if !defaultEmpty {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			send, ok := cc.Comm.(*ast.SendStmt)
			if !ok {
				continue
			}
			if received[types.ExprString(unparen(send.Chan))] {
				continue // evict-then-resend: the drop is handled
			}
			field, ok := errorField(pkg.Info.TypeOf(send.Value))
			if !ok {
				continue
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(send.Pos()),
				Rule: "errdrop",
				Message: "non-blocking send of a payload carrying error field " + field +
					" with an empty default: the error vanishes when " + types.ExprString(send.Chan) +
					" is full; record the drop or evict-and-resend",
			})
		}
		return true
	})
	return out
}

// errDiscards flags assignments that bind an error-typed result to the
// blank identifier.
func errDiscards(pkg *Package, as *ast.AssignStmt) []Finding {
	// Only the multi-value-call shape (lhs... = f()) and the direct
	// `_ = expr` shape can discard: position-matched tuples.
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil
	}
	t := pkg.Info.TypeOf(call)
	if t == nil {
		return nil
	}
	callee := "call"
	if fn := calledFunc(pkg, call); fn != nil {
		callee = shortFuncName(fn)
	}
	var out []Finding
	report := func(n ast.Node) {
		out = append(out, Finding{Pos: pkg.Fset.Position(n.Pos()), Rule: "errdrop",
			Message: "error result of " + callee + " discarded with _; handle it or record why it is ignorable"})
	}
	switch rt := t.(type) {
	case *types.Tuple:
		if rt.Len() != len(as.Lhs) {
			return nil
		}
		for i := 0; i < rt.Len(); i++ {
			if !isErrorType(rt.At(i).Type()) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
				report(id)
			}
		}
	default:
		if isErrorType(t) && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				report(id)
			}
		}
	}
	return out
}

// errorField returns the name of the first error-typed field in t
// (through pointers and named types), if any.
func errorField(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isErrorType(st.Field(i).Type()) {
			return st.Field(i).Name(), true
		}
	}
	return "", false
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
