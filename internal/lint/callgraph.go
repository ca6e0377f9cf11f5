package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is phase 1 of the interprocedural framework: a module-wide,
// go/types-resolved call graph, read by the polls-ctx fact (facts.go). It
// is deliberately a static graph, not a points-to analysis: an edge means
// "this body calls that function" directly or as a method call. Calls
// through interfaces or stored function variables resolve to the
// interface method or not at all, so a fact derived from the graph can
// miss a callee but never invents one.
//
// Calls inside function literals are attributed to the enclosing
// declared function, with Edge.InFuncLit set, because a literal may run
// on another goroutine or not at all: the polls-ctx fact excludes them.

// Edge is one resolved call of Callee inside a function's body.
type Edge struct {
	Callee string
	// InFuncLit marks calls inside a function literal of the caller: the
	// call is still attributed to the enclosing declaration, but it may
	// execute on another goroutine or not at all.
	InFuncLit bool
}

// FuncNode is one declared function of the loaded program, keyed by
// funcKey (pkgpath.Func or pkgpath.Recv.Method).
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Out  []*Edge
}

// CallGraph is the module-wide call graph.
type CallGraph struct {
	Nodes map[string]*FuncNode
}

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
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					g.Nodes[declKey(pkg.Path, fd)] = &FuncNode{Pkg: pkg, Decl: fd, Out: callEdges(pkg.Info, fd)}
				}
			}
		}
	}
	return g
}

// callEdges walks one function body recording its resolved calls. The
// walk keeps an explicit node stack so calls inside function literals are
// recognized.
func callEdges(info *types.Info, fd *ast.FuncDecl) []*Edge {
	if fd.Body == nil {
		return nil
	}
	var out []*Edge
	var stack []ast.Node
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
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, call); fn != nil {
				out = append(out, &Edge{Callee: funcKey(fn), InFuncLit: inLit()})
			}
		}
		return true
	})
	return out
}
