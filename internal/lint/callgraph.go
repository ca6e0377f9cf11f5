package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is phase 1 of the interprocedural framework: a module-wide,
// go/types-resolved call graph. It is deliberately a *static reference*
// graph, not a points-to analysis: an edge means "this body names that
// function", either by calling it (EdgeCall) or by taking its value
// (EdgeRef, covering method values like `h := s.snapshot` and function
// values passed as callbacks). Calls through interfaces or stored
// function variables resolve to the interface method or not at all —
// analyzers that consume the graph must stay sound under that
// approximation (facts.go treats unresolvable uses of a tracked value
// as escapes for exactly this reason).
//
// Calls inside function literals are attributed to the enclosing
// declared function, with Edge.InFuncLit set so consumers that care
// about goroutine boundaries (the polls-ctx fact) can exclude them.

// EdgeKind distinguishes a call from a reference that takes the
// function's value.
type EdgeKind int

const (
	// EdgeCall is a direct call or method call.
	EdgeCall EdgeKind = iota
	// EdgeRef is a method value or function value reference: the function
	// escapes as data and may be called anywhere later.
	EdgeRef
)

func (k EdgeKind) String() string {
	if k == EdgeRef {
		return "ref"
	}
	return "call"
}

// Edge is one resolved use of Callee inside Caller's body.
type Edge struct {
	Caller string
	Callee string
	Kind   EdgeKind
	Pos    token.Pos
	// Site is the call expression for EdgeCall edges, nil for EdgeRef.
	Site *ast.CallExpr
	// InFuncLit marks uses inside a function literal of the caller: the
	// use is still attributed to the enclosing declaration, but it may
	// execute on another goroutine or not at all.
	InFuncLit bool
}

// FuncNode is one function in the graph, keyed by funcKey
// (pkgpath.Func or pkgpath.Recv.Method). Functions outside the loaded
// program (standard library, interface methods) get a node with nil Pkg
// and Decl so their incoming edges are still navigable.
type FuncNode struct {
	Key  string
	Pkg  *Package
	Decl *ast.FuncDecl
	Out  []*Edge
	In   []*Edge
}

// CallGraph is the module-wide function reference graph.
type CallGraph struct {
	Nodes map[string]*FuncNode
}

// Node returns the node for key, or nil.
func (g *CallGraph) Node(key string) *FuncNode { return g.Nodes[key] }

// Keys returns every node key in sorted order (for deterministic
// iteration; Go randomizes map order).
func (g *CallGraph) Keys() []string {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = buildCallGraph(p) })
	return p.cg
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{Nodes: map[string]*FuncNode{}}
	// Declared functions first, so callee lookups find Pkg and Decl.
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := declKey(pkg.Path, fd)
				g.Nodes[key] = &FuncNode{Key: key, Pkg: pkg, Decl: fd}
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				g.addEdges(pkg, g.Nodes[declKey(pkg.Path, fd)], fd)
			}
		}
	}
	return g
}

func (g *CallGraph) ensure(key string) *FuncNode {
	n := g.Nodes[key]
	if n == nil {
		n = &FuncNode{Key: key}
		g.Nodes[key] = n
	}
	return n
}

func (g *CallGraph) addEdge(e *Edge) {
	caller := g.ensure(e.Caller)
	callee := g.ensure(e.Callee)
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// addEdges walks one function body recording call and reference edges.
// The walk keeps an explicit node stack so uses inside function literals
// are recognized, and remembers which identifiers are call heads so the
// callee of `f(x)` is not double-counted as a reference to f.
func (g *CallGraph) addEdges(pkg *Package, caller *FuncNode, fd *ast.FuncDecl) {
	var stack []ast.Node
	callHeads := map[*ast.Ident]bool{}
	inLit := func() bool {
		for _, n := range stack {
			if _, ok := n.(*ast.FuncLit); ok {
				return true
			}
		}
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch s := n.(type) {
		case *ast.CallExpr:
			if fn, id := resolveCall(pkg.Info, s); fn != nil {
				callHeads[id] = true
				g.addEdge(&Edge{
					Caller:    caller.Key,
					Callee:    funcKey(fn),
					Kind:      EdgeCall,
					Pos:       s.Pos(),
					Site:      s,
					InFuncLit: inLit(),
				})
			}
		case *ast.Ident:
			if callHeads[s] {
				return true
			}
			if fn, ok := pkg.Info.Uses[s].(*types.Func); ok {
				g.addEdge(&Edge{
					Caller:    caller.Key,
					Callee:    funcKey(fn),
					Kind:      EdgeRef,
					Pos:       s.Pos(),
					InFuncLit: inLit(),
				})
			}
		}
		return true
	})
}

// resolveCall is calleeFunc plus the identifier that names the callee,
// and unwraps explicit instantiations of generic functions (f[T](x)).
func resolveCall(info *types.Info, call *ast.CallExpr) (*types.Func, *ast.Ident) {
	fun := unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(ix.X)
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil, nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil {
		return nil, nil
	}
	return fn, id
}
