// Package lint implements xvlint, the project's invariant checker: five
// static analyzers that machine-check whole-codebase rules no type
// boundary can express.
//
//   - detorder: map-range iteration in determinism-critical packages must
//     not reach rendered output or cost accumulation (plan text, cost
//     estimates, summary text, HTTP bodies must be byte-identical across
//     runs; Go randomizes map iteration order).
//   - ctxpoll: tuple/row loops in the rewrite/execution/maintenance engines
//     must poll cancellation, so an abandoned request stops burning CPU.
//   - errclose: error returns from Close/Sync/WriteFile on the persist path
//     must not be discarded; a dropped error can silently violate the
//     write-catalog-last durability protocol.
//   - sharemut: relations and block handles returned by shared accessors
//     (//xvlint:sharedreturn) must not be written through.
//   - metriccheck: metric label values are compile-time bounded and metric
//     names are constant, xvserve_-prefixed and registered once.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, diagnostics, testdata fixtures with "// want"
// expectations) but is built on the standard library alone — go/parser,
// go/types and the source importer — so the module keeps zero external
// dependencies. See docs/lint.md for the invariant catalogue and the
// annotation reference.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named check. Run reports diagnostics for a single
// package; analyzers that need program-wide context (sharemut's facts,
// metriccheck's registration census) read Pass.Prog.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test fixtures.
	Name string
	// Summary is the one-line description shown by `xvlint help` and as
	// the rule description in SARIF output.
	Summary string
	// Doc is the one-paragraph description printed by `xvlint help`.
	Doc string
	// Roots restricts where diagnostics are REPORTED: a package is checked
	// only when its import path equals a root or is the root's "/..."
	// subtree. Empty means every package (fixture tests run analyzers
	// directly, bypassing Roots via the driver's Force option).
	Roots []string
	// Run reports this analyzer's diagnostics for pass's package.
	Run func(pass *Pass)
}

// All returns the full xvlint suite in the order diagnostics are grouped:
// the three intraprocedural analyzers, then the two built on the
// call-graph/facts layer.
func All() []*Analyzer {
	return []*Analyzer{DetOrder, CtxPoll, ErrClose, ShareMut, MetricCheck}
}

// AppliesTo reports whether the analyzer checks the given import path.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Roots) == 0 {
		return true
	}
	for _, r := range a.Roots {
		if pkgPath == r || strings.HasPrefix(pkgPath, r+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// directives maps filename -> line -> directives on that line.
	directives map[string]map[int][]string
}

// Program is everything one xvlint invocation loaded. Analyzers that check
// cross-package properties (sharemut, metriccheck) consult every package
// here, not just the one under analysis.
type Program struct {
	Fset     *token.FileSet
	Packages []*Package

	// Phase-1 interprocedural layers, built lazily and shared by every
	// analyzer pass over this program (see callgraph.go and facts.go).
	cgOnce    sync.Once
	cg        *CallGraph
	factsOnce sync.Once
	facts     *Facts
}

// Pass carries one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunOptions tunes Run.
type RunOptions struct {
	// Force runs every analyzer on every package, ignoring Roots (the
	// fixture tests use it; the CLI keeps analyzers scoped).
	Force bool
}

// Run applies the analyzers to every package of the program (honoring
// each analyzer's Roots unless opts.Force) and returns the diagnostics
// sorted by file position.
func Run(prog *Program, analyzers []*Analyzer, opts RunOptions) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			if !opts.Force && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// A directive is one //xvlint:<name> annotation (orderindependent, nopoll,
// errok, sharedreturn, aliasok, boundedlabel), optionally followed by free
// text — the justification lives on the same line as the suppression it
// explains. Every suppression in the codebase is one of these, so every
// exception to an invariant is a greppable, reviewed decision.
var directiveRE = regexp.MustCompile(`^xvlint:([a-z]+)(?:\s|$)`)

// directiveName returns the directive a comment line carries, or "".
func directiveName(c *ast.Comment) string {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if m := directiveRE.FindStringSubmatch(text); m != nil {
		return m[1]
	}
	return ""
}

// parseDirectives indexes every //xvlint: comment of the file by line.
func parseDirectives(fset *token.FileSet, f *ast.File) map[int][]string {
	out := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name := directiveName(c); name != "" {
				line := fset.Position(c.Pos()).Line
				out[line] = append(out[line], name)
			}
		}
	}
	return out
}

// stmtAnnotated reports whether the statement starting at pos carries the
// named directive (same line or the line above).
func (pkg *Package) stmtAnnotated(pos token.Pos, name string) bool {
	p := pkg.Fset.Position(pos)
	byLine := pkg.directives[p.Filename]
	for _, line := range []int{p.Line - 1, p.Line} {
		for _, d := range byLine[line] {
			if d == name {
				return true
			}
		}
	}
	return false
}

// docAnnotated reports whether a doc comment (of a function, or of an
// interface method) carries the named directive.
func docAnnotated(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if directiveName(c) == name {
			return true
		}
	}
	return false
}

// unparen strips any number of enclosing parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (direct calls and method calls; nil for indirect calls through
// variables, built-ins and type conversions).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcKey names a function the way the call graph and facts key it:
// pkgpath.Func or pkgpath.Recv.Method (pointer receivers stripped).
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// declKey is funcKey for a declaration in the given package.
func declKey(pkgPath string, fd *ast.FuncDecl) string {
	key := pkgPath + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Strip type parameters (Recv[T]) if present.
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}

// namedType unwraps pointers and returns the expression type's named form,
// or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// sameObject reports whether two expressions statically resolve to the
// same variable chain: identical identifiers or selector paths (a.b.c).
// Used to compare "the map being ranged" with "the map being written".
func sameObject(info *types.Info, a, b ast.Expr) bool {
	a, b = unparen(a), unparen(b)
	switch ae := a.(type) {
	case *ast.Ident:
		be, ok := b.(*ast.Ident)
		return ok && info.ObjectOf(ae) != nil && info.ObjectOf(ae) == info.ObjectOf(be)
	case *ast.SelectorExpr:
		be, ok := b.(*ast.SelectorExpr)
		return ok && ae.Sel.Name == be.Sel.Name && sameObject(info, ae.X, be.X)
	case *ast.IndexExpr:
		be, ok := b.(*ast.IndexExpr)
		return ok && sameObject(info, ae.X, be.X) && sameObject(info, ae.Index, be.Index)
	}
	return false
}

// usesObject reports whether expr mentions the object anywhere.
func usesObject(info *types.Info, expr ast.Expr, obj types.Object) bool {
	if expr == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
