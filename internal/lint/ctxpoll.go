package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CtxPoll pins the PR 4 cancellation guarantee: every tuple/row loop in
// the rewrite and execution engines polls cancellation, so a client that
// disconnects stops burning CPU within a bounded number of rows
// (cancelCheckEvery in internal/algebra).
//
// A "tuple loop" is a range over a slice or array whose element type's
// name matches tuple|row (nrel.Tuple, joinedRow, ...). A loop is polled
// when its body — or the body of an enclosing loop in the same function,
// which bounds the unpolled work by one inner pass — contains one of:
//
//   - a call to a recognized poll helper: cancelled, done, shouldStop,
//     stop, poll (the project's established names; docs/lint.md says to
//     extend the list rather than invent a sixth synonym);
//   - a Done() or Err() call on a context.Context;
//   - a select statement (polling a done channel).
//
// Loops that must not poll — the incremental-maintenance engine applies
// updates under the store lock where a half-applied abort would be worse
// than a slow one — carry //xvlint:nopoll on the loop or on the enclosing
// function's doc comment, with the reason alongside.
var CtxPoll = &Analyzer{
	Name:    "ctxpoll",
	Summary: "tuple/row loops in the engines must poll cancellation",
	Doc: "flags tuple/row loops in the rewrite/execution/maintenance engines " +
		"(algebra, core, maintain) that lack a cancellation poll",
	Roots: []string{
		"xmlviews/internal/algebra",
		"xmlviews/internal/core",
		"xmlviews/internal/maintain",
	},
	Run: runCtxPoll,
}

var tupleTypeRE = regexp.MustCompile(`(?i)tuple|row`)

// pollHelperNames are the project's sanctioned cancellation-poll helpers.
var pollHelperNames = map[string]bool{
	"cancelled":  true,
	"done":       true,
	"shouldStop": true,
	"stop":       true,
	"poll":       true,
}

func runCtxPoll(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if docAnnotated(fd.Doc, "nopoll") {
				continue
			}
			ctxPollFunc(pass, fd)
		}
	}
}

// ctxPollFunc walks the function body keeping a stack of enclosing loops;
// function literals reset the stack (a closure's loop does not inherit the
// polling of the loop that created it — it may run on another goroutine).
func ctxPollFunc(pass *Pass, fd *ast.FuncDecl) {
	var walk func(n ast.Node, enclosingPolled bool)
	walk = func(n ast.Node, enclosingPolled bool) {
		switch s := n.(type) {
		case *ast.FuncLit:
			walkChildren(s.Body, func(c ast.Node) { walk(c, false) })
			return
		case *ast.RangeStmt:
			polled := enclosingPolled || bodyPolled(pass, s.Body)
			if !polled && isTupleLoop(pass.Pkg.Info, s) && !pass.Pkg.stmtAnnotated(s.Pos(), "nopoll") {
				pass.Reportf(s.Pos(),
					"tuple loop without a cancellation poll: check a ctx/stop probe every few thousand rows "+
						"(see cancelCheckEvery in internal/algebra) or annotate //xvlint:nopoll with the reason")
			}
			walkChildren(s.Body, func(c ast.Node) { walk(c, polled) })
			return
		case *ast.ForStmt:
			polled := enclosingPolled || bodyPolled(pass, s.Body)
			walkChildren(s.Body, func(c ast.Node) { walk(c, polled) })
			return
		}
		walkChildren(n, func(c ast.Node) { walk(c, enclosingPolled) })
	}
	walkChildren(fd.Body, func(c ast.Node) { walk(c, false) })
}

// walkChildren visits n's immediate children.
func walkChildren(n ast.Node, visit func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(c)
		}
		return false
	})
}

// isTupleLoop reports whether the range statement iterates a slice/array
// of tuples or rows.
func isTupleLoop(info *types.Info, rs *ast.RangeStmt) bool {
	tv, ok := info.Types[rs.X]
	if !ok {
		return false
	}
	var elem types.Type
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return false
	}
	named := namedType(elem)
	return named != nil && tupleTypeRE.MatchString(named.Obj().Name())
}

// bodyPolled reports whether the block polls cancellation directly or
// calls (outside function literals) a function the polls-ctx fact says
// reaches a poll — the v2 interprocedural upgrade, so extracting a
// loop's poll into a helper keeps the loop legal.
func bodyPolled(pass *Pass, body *ast.BlockStmt) bool {
	if containsPoll(pass.Pkg.Info, body) {
		return true
	}
	facts := pass.Prog.Facts()
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, _ := resolveCall(pass.Pkg.Info, call); fn != nil && facts.PollsCtx[funcKey(fn)] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// containsPoll reports whether the block contains a cancellation poll,
// at any nesting depth but not across function-literal boundaries.
func containsPoll(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			found = true
			return false
		case *ast.CallExpr:
			if isPollCall(info, s) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isPollCall recognizes calls to the sanctioned poll helpers and to
// Done/Err on a context.Context.
func isPollCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return pollHelperNames[fun.Name]
	case *ast.SelectorExpr:
		if pollHelperNames[fun.Sel.Name] {
			return true
		}
		if fun.Sel.Name == "Done" || fun.Sel.Name == "Err" {
			if tv, ok := info.Types[fun.X]; ok && isContextType(tv.Type) {
				return true
			}
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}
