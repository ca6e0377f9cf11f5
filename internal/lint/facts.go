package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Facts is phase 1's per-function summary layer, modeled on go/analysis
// facts but computed eagerly over the whole program (the module is small
// enough that a fixpoint over every function costs less than the type
// check that precedes it). Phase 2 analyzers consume facts across
// package boundaries: sharemut asks "does this callee mutate its
// argument", ctxpoll asks "does this helper poll cancellation".
//
// All facts are keyed by funcKey (pkgpath.Func / pkgpath.Recv.Method).
// Parameter indices count declared parameters left to right from 0; the
// receiver is index -1.
type Facts struct {
	// SharedReturn marks functions whose return value aliases storage
	// shared beyond the call (seeded by //xvlint:sharedreturn doc
	// directives on functions and on interface methods, propagated through
	// trivial wrappers that `return` a shared-returning call — the
	// facade's re-exports).
	SharedReturn map[string]bool
	// Mutates records which parameters a function writes through:
	// element/field/deref assignment, copy into, or passing the parameter
	// onward to a callee that mutates it.
	Mutates map[string]map[int]bool
	// PollsCtx marks functions whose body (or a callee's, outside
	// function literals) reaches a cancellation poll.
	PollsCtx map[string]bool
}

// Facts returns the program's fact set, computing it on first use.
func (p *Program) Facts() *Facts {
	p.factsOnce.Do(func() { p.facts = computeFacts(p) })
	return p.facts
}

// argFlow is one "caller parameter flows into callee parameter" record,
// the substrate both propagation fixpoints run on.
type argFlow struct {
	caller    string
	callerIdx int
	callee    string
	calleeIdx int // -1 = callee receiver
}

func computeFacts(prog *Program) *Facts {
	facts := &Facts{
		SharedReturn: map[string]bool{},
		Mutates:      map[string]map[int]bool{},
		PollsCtx:     map[string]bool{},
	}
	g := prog.CallGraph()

	returnedCallees := map[string][]string{}
	var flows []argFlow
	seedInterfaceMethods(prog, facts.SharedReturn)

	for _, key := range g.Keys() {
		node := g.Nodes[key]
		if node.Decl == nil {
			continue
		}
		pkg, fd := node.Pkg, node.Decl

		if docAnnotated(fd.Doc, "sharedreturn") {
			facts.SharedReturn[key] = true
		}
		if fd.Body == nil {
			continue
		}
		if containsPoll(pkg.Info, fd.Body) {
			facts.PollsCtx[key] = true
		}
		returnedCallees[key] = directReturnedCallees(pkg.Info, fd)

		params := paramObjects(pkg.Info, fd)
		if m := directMutations(pkg.Info, fd, params); len(m) > 0 {
			facts.Mutates[key] = m
		}
		flows = append(flows, paramFlows(pkg.Info, key, fd, params)...)
	}

	// SharedReturn fixpoint: a wrapper that returns a shared-returning
	// call shares the same storage (xmlviews.NewStore -> view.NewStore
	// style re-exports keep their callee's fact).
	for changed := true; changed; {
		changed = false
		for key, callees := range returnedCallees {
			if facts.SharedReturn[key] {
				continue
			}
			for _, callee := range callees {
				if facts.SharedReturn[callee] {
					facts.SharedReturn[key] = true
					changed = true
					break
				}
			}
		}
	}

	// Mutates fixpoint over argument flows.
	for changed := true; changed; {
		changed = false
		for _, fl := range flows {
			if facts.Mutates[fl.callee][fl.calleeIdx] && !facts.Mutates[fl.caller][fl.callerIdx] {
				if facts.Mutates[fl.caller] == nil {
					facts.Mutates[fl.caller] = map[int]bool{}
				}
				facts.Mutates[fl.caller][fl.callerIdx] = true
				changed = true
			}
		}
	}

	// PollsCtx fixpoint: a call (outside function literals, which may run
	// on another goroutine) to a polling function polls.
	for changed := true; changed; {
		changed = false
		for _, key := range g.Keys() {
			if facts.PollsCtx[key] {
				continue
			}
			for _, e := range g.Nodes[key].Out {
				if e.Kind == EdgeCall && !e.InFuncLit && facts.PollsCtx[e.Callee] {
					facts.PollsCtx[key] = true
					changed = true
					break
				}
			}
		}
	}
	return facts
}

// seedInterfaceMethods marks interface methods whose declaration carries
// //xvlint:sharedreturn, keyed like a call through the interface resolves
// (pkgpath.Iface.Method), so a shared accessor stays tracked when callers
// hold it behind an interface (algebra's executor reads extents through
// algebra.Reader).
func seedInterfaceMethods(prog *Program, shared map[string]bool) {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, m := range it.Methods.List {
					if docAnnotated(m.Doc, "sharedreturn") && len(m.Names) == 1 {
						shared[pkg.Path+"."+ts.Name.Name+"."+m.Names[0].Name] = true
					}
				}
				return false
			})
		}
	}
}

// paramObjects maps the function's receiver (-1) and parameters (0..n-1)
// to their declared objects. Blank and unnamed parameters are skipped —
// nothing can flow through a name that does not exist.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	add := func(names []*ast.Ident, idx int) {
		for _, name := range names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil {
				out[obj] = idx
			}
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		add(fd.Recv.List[0].Names, -1)
	}
	if fd.Type.Params != nil {
		idx := 0
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				add([]*ast.Ident{name}, idx)
				idx++
			}
		}
	}
	return out
}

// pathBase unwraps a selector/index/slice/deref chain to its base
// identifier (rel.Rows[i] -> rel), or nil for anything else.
func pathBase(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// directMutations finds the parameters this body writes through: an
// assignment or ++/-- whose left side is a selector/index/deref path
// rooted at the parameter (a bare `p = x` rebinds the local copy and is
// not a mutation), or a copy() with the parameter's data as destination.
func directMutations(info *types.Info, fd *ast.FuncDecl, params map[types.Object]int) map[int]bool {
	out := map[int]bool{}
	through := func(e ast.Expr) {
		if base := pathBase(e); base != nil && unparen(e) != ast.Expr(base) {
			if idx, ok := params[info.ObjectOf(base)]; ok {
				out[idx] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				through(lhs)
			}
		case *ast.IncDecStmt:
			through(s.X)
		case *ast.CallExpr:
			if id, ok := unparen(s.Fun).(*ast.Ident); ok && id.Name == "copy" && len(s.Args) == 2 {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if base := pathBase(s.Args[0]); base != nil {
						if idx, ok := params[info.ObjectOf(base)]; ok {
							out[idx] = true
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// paramFlows records every call argument (and method receiver) that is a
// path rooted at one of the caller's parameters, so the Mutates
// fixpoint can walk caller->callee. Taking the address of
// the parameter flows the parameter itself.
func paramFlows(info *types.Info, callerKey string, fd *ast.FuncDecl, params map[types.Object]int) []argFlow {
	var flows []argFlow
	flowBase := func(e ast.Expr) (int, bool) {
		e = unparen(e)
		if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
			e = unparen(ue.X)
		}
		base := pathBase(e)
		if base == nil {
			return 0, false
		}
		idx, ok := params[info.ObjectOf(base)]
		return idx, ok
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, _ := resolveCall(info, call)
		if fn == nil {
			return true
		}
		calleeKey := funcKey(fn)
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if i, ok := flowBase(sel.X); ok {
					flows = append(flows, argFlow{callerKey, i, calleeKey, -1})
				}
			}
		}
		for j, arg := range call.Args {
			if i, ok := flowBase(arg); ok {
				flows = append(flows, argFlow{callerKey, i, calleeKey, j})
			}
		}
		return true
	})
	return flows
}

// directReturnedCallees lists functions whose result this function
// returns directly (`return f(...)` with a single result), outside any
// function literal — the shape of the facade's re-exports.
func directReturnedCallees(info *types.Info, fd *ast.FuncDecl) []string {
	var out []string
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		for _, anc := range stack[:len(stack)-1] {
			if _, ok := anc.(*ast.FuncLit); ok {
				return true
			}
		}
		if call, ok := unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if fn, _ := resolveCall(info, call); fn != nil {
				out = append(out, funcKey(fn))
			}
		}
		return true
	})
	return out
}
