package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ShareMut enforces the clone-before-mutate rule for shared storage.
//
// Accessors annotated //xvlint:sharedreturn (view.Store's extent and
// Blocks lookups, the plan cache's entries) return values whose backing
// storage is shared with the cache and with concurrent readers — the
// PR 2 fillVirtualIDs race and the PR 8 prepared-Blocks invalidation
// bug were both a caller mutating such a value in place. The analyzer
// taints every value obtained from a shared-returning call, follows the
// taint through assignments, field/index paths, range loops and append
// results, and reports when a tainted value is written through:
//
//   - an element/field/deref assignment (rel.Rows[i] = t, blk.data = b);
//   - an append whose destination slice aliases shared backing;
//   - a copy() with shared data as destination;
//   - a call to a function the mutates fact says writes through that
//     parameter or receiver (including sort.Slice and friends).
//
// Writes that stay inside a value copy (v := row[j]; v.Kind = k) are
// not shared and are not flagged: a write counts only when the path
// from the tainted base traverses a pointer, slice or map.
//
// Re-binding a tainted variable from a non-shared source — the clone
// idiom rel = rel.Clone(), or building a fresh relation — clears its
// taint. Deliberate in-place mutation (construction-time code that owns
// the storage it just built) carries //xvlint:aliasok with the reason.
//
// The tracking is positional, not path-sensitive: it
// follows statements in source order and is an auditing aid, not a
// proof; the race detector covers the dynamic side.
var ShareMut = &Analyzer{
	Name:    "sharemut",
	Summary: "values from //xvlint:sharedreturn accessors must be cloned before mutation",
	Doc: "flags mutation of values obtained from //xvlint:sharedreturn accessors " +
		"(cached extents, Blocks handles, plan-cache entries): element/field assigns, " +
		"appends into aliased slices, and passing them to known-mutating callees, " +
		"unless the value was re-bound from a clone or the site carries //xvlint:aliasok",
	Roots: []string{
		"xmlviews/internal/algebra",
		"xmlviews/internal/core",
		"xmlviews/internal/maintain",
		"xmlviews/internal/serve",
		"xmlviews/internal/view",
	},
	Run: runShareMut,
}

// knownStdlibMutators maps undeclared (standard library) functions to
// the argument index they mutate, so sorting a shared slice in place is
// still caught even without a mutates fact.
var knownStdlibMutators = map[string]int{
	"sort.Slice":       0,
	"sort.SliceStable": 0,
	"sort.Sort":        0,
}

func runShareMut(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				shareMutFunc(pass, fd)
			}
		}
	}
}

// taintState tracks which local objects currently alias shared storage,
// each with the display name of the accessor the value came from.
type taintState map[types.Object]string

func shareMutFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	facts := pass.Prog.Facts()
	taint := taintState{}
	// Appends whose report is owned by the enclosing self-append
	// assignment (sh.Rows = append(sh.Rows, ...)) — one finding, not two.
	selfAppend := map[*ast.CallExpr]bool{}

	taintedBase := func(e ast.Expr) (string, bool) {
		base := pathBase(e)
		if base == nil {
			return "", false
		}
		src, ok := taint[info.ObjectOf(base)]
		return src, ok
	}

	report := func(n ast.Node, src, what string) {
		if pass.Pkg.stmtAnnotated(n.Pos(), "aliasok") {
			return
		}
		pass.Reportf(n.Pos(),
			"%s a value shared via %s: clone it first (the backing storage is visible to "+
				"concurrent readers and the cache) or annotate //xvlint:aliasok with why the alias is safe",
			what, src)
	}

	// taintsValue reports whether evaluating e yields a value aliasing
	// shared storage, and names its source.
	var taintsValue func(e ast.Expr) (string, bool)
	taintsValue = func(e ast.Expr) (string, bool) {
		e = unparen(e)
		switch x := e.(type) {
		case *ast.CallExpr:
			if fn, _ := resolveCall(info, x); fn != nil && facts.SharedReturn[funcKey(fn)] {
				return shortFuncKey(funcKey(fn)), true
			}
			// append(shared, ...) returns a slice that may share the
			// shared backing array.
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				if _, isB := info.Uses[id].(*types.Builtin); isB {
					return taintedBase(x.Args[0])
				}
			}
			return "", false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return taintsValue(x.X)
			}
			return "", false
		case *ast.CompositeLit:
			// A fresh struct/slice holding a shared pointer is not itself
			// shared: writing its fields replaces pointers rather than
			// mutating the pointee. Mutations reached through the stored
			// pointer are beyond this (deliberately local) tracking.
			return "", false
		default:
			return taintedBase(e)
		}
	}

	setTaint := func(id *ast.Ident, src string) {
		obj := info.ObjectOf(id)
		if obj == nil || id.Name == "_" {
			return
		}
		if t := obj.Type(); t != nil && isBasicType(t) {
			return // ints/strings cannot reach shared storage
		}
		taint[obj] = src
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			shareMutAssign(pass, s, info, taint, selfAppend, taintsValue, setTaint, taintedBase, report)
		case *ast.IncDecStmt:
			if src, ok := taintedBase(s.X); ok && sharedWritePath(info, s.X) {
				report(s, src, "incrementing through")
			}
		case *ast.RangeStmt:
			if src, ok := taintsValue(s.X); ok {
				for _, v := range []ast.Expr{s.Key, s.Value} {
					if id, ok := v.(*ast.Ident); ok {
						setTaint(id, src)
					}
				}
			}
		case *ast.CallExpr:
			shareMutCall(pass, s, info, facts, selfAppend, taintedBase, report)
		}
		return true
	})
}

// shareMutAssign handles taint creation, taint clearing on re-binding,
// and mutation reports for assignments.
func shareMutAssign(pass *Pass, s *ast.AssignStmt, info *types.Info, taint taintState,
	selfAppend map[*ast.CallExpr]bool,
	taintsValue func(ast.Expr) (string, bool),
	setTaint func(*ast.Ident, string),
	taintedBase func(ast.Expr) (string, bool),
	report func(ast.Node, string, string)) {

	// Multi-value form: x, ok := sharedCall() taints every bind.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		src, tainted := taintsValue(s.Rhs[0])
		for _, lhs := range s.Lhs {
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				if tainted {
					setTaint(id, src)
				} else {
					delete(taint, info.ObjectOf(id))
				}
			}
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		rhs := s.Rhs[i]
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			// Bare binding: taint or clear. rel = rel.Clone() clears.
			if src, ok := taintsValue(rhs); ok {
				setTaint(id, src)
			} else {
				delete(taint, info.ObjectOf(id))
			}
			continue
		}
		// Path assignment: writing through a tainted base mutates the
		// shared storage.
		if src, ok := taintedBase(lhs); ok && sharedWritePath(info, lhs) {
			if call, ok := unparen(rhs).(*ast.CallExpr); ok {
				if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 && sameObject(info, call.Args[0], lhs) {
					selfAppend[call] = true
				}
			}
			report(s, src, "assigning through")
		}
	}
}

// shareMutCall reports mutating uses of tainted values at call sites.
func shareMutCall(pass *Pass, call *ast.CallExpr, info *types.Info, facts *Facts,
	selfAppend map[*ast.CallExpr]bool,
	taintedBase func(ast.Expr) (string, bool),
	report func(ast.Node, string, string)) {

	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "append":
				if selfAppend[call] {
					return
				}
				if src, ok := taintedBase(call.Args[0]); ok {
					report(call, src, "appending into")
				}
			case "copy":
				if len(call.Args) == 2 {
					if src, ok := taintedBase(call.Args[0]); ok {
						report(call, src, "copying into")
					}
				}
			}
			return
		}
	}
	fn, _ := resolveCall(info, call)
	if fn == nil {
		return
	}
	key := funcKey(fn)
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if src, ok := taintedBase(sel.X); ok && facts.Mutates[key][-1] {
				report(call, src, "calling mutating method "+fn.Name()+" on")
			}
		}
	}
	for j, arg := range call.Args {
		src, tainted := taintedBase(arg)
		if !tainted {
			continue
		}
		if facts.Mutates[key][j] {
			report(call, src, "passing to mutating "+shortFuncKey(key)+" argument of")
		} else if idx, known := knownStdlibMutators[key]; known && idx == j {
			report(call, src, "passing to in-place "+key+" argument of")
		}
	}
}

// sharedWritePath reports whether the assignment path dereferences
// shared memory: its base or any intermediate step is a pointer, slice
// or map. A field write on a struct value copy stays local and is fine.
func sharedWritePath(info *types.Info, lhs ast.Expr) bool {
	e := unparen(lhs)
	for {
		var inner ast.Expr
		switch x := e.(type) {
		case *ast.SelectorExpr:
			inner = x.X
		case *ast.IndexExpr:
			inner = x.X
		case *ast.SliceExpr:
			inner = x.X
		case *ast.StarExpr:
			inner = x.X
		case *ast.Ident:
			return false
		default:
			return false
		}
		inner = unparen(inner)
		if tv, ok := info.Types[inner]; ok && isRefLike(tv.Type) {
			return true
		}
		e = inner
	}
}

// isRefLike reports whether values of the type share backing storage
// when copied.
func isRefLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// isBasicType reports scalar types that cannot alias shared storage.
func isBasicType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

// shortFuncKey trims the module path from a function key for messages:
// xmlviews/internal/view.Store.Relation -> view.Store.Relation.
func shortFuncKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}
