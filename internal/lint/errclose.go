package lint

import (
	"go/ast"
	"go/types"
)

// ErrClose flags discarded error returns from Close, Sync and WriteFile
// on the persist path (internal/store, internal/serve).
//
// The store's durability protocol writes data segments first and the
// catalog last, so a crash never leaves the manifest referencing
// half-written files. That only holds if write-path errors actually
// surface: a `f.Close()` whose error vanishes can acknowledge a batch
// whose log record never reached the disk. The analyzer flags
//
//   - expression statements:  f.Close()
//   - defers:                 defer f.Close()
//   - goroutines:             go f.Close()
//
// calling a function or method named Close, Sync or WriteFile whose last
// result is an error. An explicit blank assignment (`_ = f.Close()`) is
// not flagged — it is visible in review — and a site can carry
// //xvlint:errok with a justification (read-path close where the data has
// already been validated, error path where the primary error wins).
var ErrClose = &Analyzer{
	Name:    "errclose",
	Summary: "persist-path Close/Sync/WriteFile errors must not be discarded",
	Doc: "flags discarded errors from Close/Sync/WriteFile in the persistence layers " +
		"(store, serve), where a dropped error can break the write-catalog-last protocol",
	Roots: []string{
		"xmlviews/internal/store",
		"xmlviews/internal/serve",
	},
	Run: runErrClose,
}

// errCloseNames are the flagged function/method names.
var errCloseNames = map[string]bool{
	"Close":     true,
	"Sync":      true,
	"WriteFile": true,
}

func runErrClose(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			var kind string
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
				kind = "discarded"
			case *ast.DeferStmt:
				call = s.Call
				kind = "discarded by defer"
			case *ast.GoStmt:
				call = s.Call
				kind = "discarded by go"
			default:
				return true
			}
			if call == nil {
				return true
			}
			name, ok := errCloseCallee(pass.Pkg.Info, call)
			if !ok {
				return true
			}
			if pass.Pkg.stmtAnnotated(n.Pos(), "errok") {
				return true
			}
			pass.Reportf(call.Pos(),
				"error from %s %s on the persist path: handle it (stage-then-commit, see writeFileAtomic), "+
					"assign it to _ if the primary error wins, or annotate //xvlint:errok with the reason",
				name, kind)
			return true
		})
	}
}

// errCloseCallee reports whether the call invokes a Close/Sync/WriteFile
// returning an error.
func errCloseCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !errCloseNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	n := namedType(last)
	if n == nil || n.Obj().Name() != "error" || n.Obj().Pkg() != nil {
		return "", false
	}
	return fn.Name(), true
}
