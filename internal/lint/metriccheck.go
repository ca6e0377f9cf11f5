package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strconv"
)

// MetricCheck freezes the observability surface two ways.
//
// Label cardinality: every argument of a CounterVec/GaugeVec .With(...)
// call must come from a compile-time-bounded set — a constant, a local
// variable assigned only constants (the execPath := "row" / "vectorized"
// pattern), or a parameter whose every call site (via the call graph)
// passes a bounded value. A request-derived string would mint one time
// series per distinct value and blow up the exposition; sites that are
// bounded for reasons the analysis cannot see (strconv.Itoa of an HTTP
// status) carry //xvlint:boundedlabel with the reason.
//
// Registration: metric names registered on an obs Registry in the
// serving layer must be compile-time constants matching xvserve_[a-z_]+
// and registered exactly once program-wide (the Registry panics on
// duplicates at runtime; the analyzer moves that to lint time).
//
// The /stats key set is pinned by the statsFields golden test in
// internal/serve/obs_test.go, not here.
var MetricCheck = &Analyzer{
	Name:    "metriccheck",
	Summary: "metric labels bounded, names xvserve_* registered once",
	Doc: "flags unbounded CounterVec/GaugeVec label values (request-derived strings) and " +
		"metric names that are non-constant, mis-shaped (xvserve_[a-z_]+) or registered twice",
	Roots: []string{"xmlviews/internal/serve"},
	Run:   runMetricCheck,
}

var metricNameRE = regexp.MustCompile(`^xvserve_[a-z_]+$`)

// registrarMethods are the obs.Registry constructors; the first argument
// is the metric name.
var registrarMethods = map[string]bool{
	"Counter": true, "CounterVec": true, "Gauge": true,
	"GaugeFunc": true, "Histogram": true,
}

func runMetricCheck(pass *Pass) {
	checkLabelBounds(pass)
	checkRegistrations(pass)
}

// --- label cardinality ---

func checkLabelBounds(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "With" {
					return true
				}
				tv, ok := info.Types[sel.X]
				if !ok {
					return true
				}
				named := namedType(tv.Type)
				if named == nil {
					return true
				}
				if name := named.Obj().Name(); name != "CounterVec" && name != "GaugeVec" {
					return true
				}
				if pass.Pkg.stmtAnnotated(call.Pos(), "boundedlabel") {
					return true
				}
				for _, arg := range call.Args {
					if !boundedExpr(pass, pass.Pkg, fd, arg, map[string]bool{}) {
						pass.Reportf(arg.Pos(),
							"metric label value %s is not compile-time bounded: a request-derived label mints "+
								"unbounded time series; map it to a fixed set first or annotate "+
								"//xvlint:boundedlabel with why the value space is bounded",
							types.ExprString(arg))
					}
				}
				return true
			})
		}
	}
}

// boundedExpr reports whether, in the context of fd, e can only take
// values from a compile-time-bounded set.
func boundedExpr(pass *Pass, pkg *Package, fd *ast.FuncDecl, e ast.Expr, seen map[string]bool) bool {
	e = unparen(e)
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return true // constant
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pkg.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	if _, isConst := obj.(*types.Const); isConst {
		return true
	}
	v, isVar := obj.(*types.Var)
	if !isVar {
		return false
	}
	if idx, isParam := paramObjects(pkg.Info, fd)[v]; isParam {
		if idx < 0 {
			return false // receiver
		}
		return boundedParam(pass, declKey(pkg.Path, fd), idx, seen)
	}
	// A local: bounded iff every assignment to it in this body is.
	assigns := 0
	bounded := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := unparen(lhs).(*ast.Ident)
			if !ok || pkg.Info.ObjectOf(lid) != v {
				continue
			}
			assigns++
			if len(as.Rhs) == len(as.Lhs) {
				if !boundedExpr(pass, pkg, fd, as.Rhs[i], seen) {
					bounded = false
				}
			} else {
				bounded = false // multi-value assignment: opaque
			}
		}
		return true
	})
	return assigns > 0 && bounded
}

// boundedParam reports whether every call site of the function passes a
// bounded value for the parameter — the interprocedural half: a helper
// like instrument(path, h) keeps a bounded label when all its callers
// pass literals.
func boundedParam(pass *Pass, fnKey string, idx int, seen map[string]bool) bool {
	memo := fnKey + "#" + strconv.Itoa(idx)
	if seen[memo] {
		return true // cycle: bounded unless some site breaks it
	}
	seen[memo] = true
	node := pass.Prog.CallGraph().Node(fnKey)
	if node == nil || len(node.In) == 0 {
		return false
	}
	sawCall := false
	for _, e := range node.In {
		if e.Kind != EdgeCall || e.Site == nil {
			return false // method value: call sites unknowable
		}
		caller := pass.Prog.CallGraph().Node(e.Caller)
		if caller == nil || caller.Decl == nil || idx >= len(e.Site.Args) {
			return false
		}
		sawCall = true
		if !boundedExpr(pass, caller.Pkg, caller.Decl, e.Site.Args[idx], seen) {
			return false
		}
	}
	return sawCall
}

// --- registration ---

// metricRegistration is one Registry constructor call.
type metricRegistration struct {
	pkg  *Package
	call *ast.CallExpr
	name string // constant value, "" when non-constant
}

// collectRegistrations finds every Registry metric constructor call in
// the program.
func collectRegistrations(prog *Program) []metricRegistration {
	var regs []metricRegistration
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
				if !ok || !registrarMethods[sel.Sel.Name] {
					return true
				}
				tv, ok := pkg.Info.Types[sel.X]
				if !ok {
					return true
				}
				named := namedType(tv.Type)
				if named == nil || named.Obj().Name() != "Registry" {
					return true
				}
				reg := metricRegistration{pkg: pkg, call: call}
				if atv, ok := pkg.Info.Types[call.Args[0]]; ok && atv.Value != nil && atv.Value.Kind() == constant.String {
					reg.name = constant.StringVal(atv.Value)
				}
				regs = append(regs, reg)
				return true
			})
		}
	}
	return regs
}

func checkRegistrations(pass *Pass) {
	regs := collectRegistrations(pass.Prog)
	byName := map[string]int{}
	for _, r := range regs {
		if r.name != "" {
			byName[r.name]++
		}
	}
	for _, r := range regs {
		if r.pkg != pass.Pkg {
			continue // diagnostics stay in the package under analysis
		}
		if r.name == "" {
			pass.Reportf(r.call.Args[0].Pos(),
				"metric name must be a compile-time constant so the exposition surface is reviewable in one grep")
			continue
		}
		if !metricNameRE.MatchString(r.name) {
			pass.Reportf(r.call.Args[0].Pos(),
				"metric name %q does not match xvserve_[a-z_]+: the serving layer's exposition prefix is frozen",
				r.name)
		}
		if byName[r.name] > 1 {
			pass.Reportf(r.call.Pos(),
				"metric %q is registered %d times; the Registry panics on duplicates at startup — register once and share the handle",
				r.name, byName[r.name])
		}
	}
}
