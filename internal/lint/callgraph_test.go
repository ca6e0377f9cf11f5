package lint_test

import (
	"strings"
	"testing"

	"xmlviews/internal/lint"
)

// loadChain loads the three-package fact-chain fixture: apppkg calls
// only wrappkg, wrappkg wraps storepkg, so every fact observed in
// apppkg crossed two package boundaries.
func loadChain(t *testing.T) *lint.Program {
	t.Helper()
	prog, err := lint.LoadDirs([]lint.DirSpec{
		{Dir: "testdata/chain/storepkg", Path: "fixture/chain/storepkg"},
		{Dir: "testdata/chain/wrappkg", Path: "fixture/chain/wrappkg"},
		{Dir: "testdata/chain/apppkg", Path: "fixture/chain/apppkg"},
	})
	if err != nil {
		t.Fatalf("loading chain fixture: %v", err)
	}
	return prog
}

// hasEdge reports an edge caller -> callee of the given kind.
func hasEdge(g *lint.CallGraph, caller, callee string, kind lint.EdgeKind) bool {
	n := g.Node(caller)
	if n == nil {
		return false
	}
	for _, e := range n.Out {
		if e.Callee == callee && e.Kind == kind {
			return true
		}
	}
	return false
}

func TestCallGraphChainEdges(t *testing.T) {
	g := loadChain(t).CallGraph()

	// Cross-package calls resolve to fully-keyed nodes.
	for _, want := range [][2]string{
		{"fixture/chain/wrappkg.Cached", "fixture/chain/storepkg.Store.Extent"},
		{"fixture/chain/wrappkg.GrowAll", "fixture/chain/storepkg.Grow"},
		{"fixture/chain/wrappkg.CheckStop", "fixture/chain/storepkg.Cancelled"},
		{"fixture/chain/apppkg.MutateSharedBuggy", "fixture/chain/wrappkg.Cached"},
		{"fixture/chain/apppkg.MutateSharedBuggy", "fixture/chain/wrappkg.GrowAll"},
	} {
		if !hasEdge(g, want[0], want[1], lint.EdgeCall) {
			t.Errorf("missing call edge %s -> %s", want[0], want[1])
		}
	}

	// A method value is a reference edge, not a call: the function
	// escapes as data.
	if !hasEdge(g, "fixture/chain/apppkg.ExtentFn", "fixture/chain/storepkg.Store.Extent", lint.EdgeRef) {
		t.Errorf("missing ref edge for the s.Extent method value in ExtentFn")
	}
	if hasEdge(g, "fixture/chain/apppkg.ExtentFn", "fixture/chain/storepkg.Store.Extent", lint.EdgeCall) {
		t.Errorf("the s.Extent method value must not count as a call edge")
	}

	// Incoming edges are navigable from the callee side too.
	grow := g.Node("fixture/chain/storepkg.Grow")
	if grow == nil || len(grow.In) == 0 {
		t.Fatalf("storepkg.Grow has no incoming edges")
	}
	if grow.Pkg == nil || grow.Decl == nil {
		t.Errorf("storepkg.Grow node lost its package or declaration")
	}
}

// TestFactsPropagateAcrossChain: facts seeded in storepkg must survive
// the wrappkg wrappers — the fixpoints that make the analyzers
// interprocedural rather than per-package.
func TestFactsPropagateAcrossChain(t *testing.T) {
	facts := loadChain(t).Facts()

	if !facts.SharedReturn["fixture/chain/storepkg.Store.Extent"] {
		t.Errorf("sharedreturn directive on Store.Extent not picked up")
	}
	if !facts.SharedReturn["fixture/chain/wrappkg.Cached"] {
		t.Errorf("sharedreturn did not propagate through the Cached wrapper")
	}
	if !facts.Mutates["fixture/chain/storepkg.Grow"][0] {
		t.Errorf("Grow's direct parameter mutation not detected")
	}
	if !facts.Mutates["fixture/chain/wrappkg.GrowAll"][0] {
		t.Errorf("mutates fact did not follow the argument through GrowAll")
	}
	if !facts.PollsCtx["fixture/chain/storepkg.Cancelled"] {
		t.Errorf("Cancelled's select-based poll not detected")
	}
	if !facts.PollsCtx["fixture/chain/wrappkg.CheckStop"] {
		t.Errorf("polls-ctx fact did not propagate through CheckStop")
	}
}

// TestShareMutAcrossChain: the end-to-end payoff — a mutation in
// apppkg is reported even though both the shared source and the
// mutator are two packages away.
func TestShareMutAcrossChain(t *testing.T) {
	prog := loadChain(t)
	diags := lint.Run(prog, []*lint.Analyzer{lint.ShareMut}, lint.RunOptions{Force: true})
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.HasSuffix(d.Pos.Filename, "apppkg.go") {
		t.Errorf("diagnostic in %s, want apppkg.go", d.Pos.Filename)
	}
	if !strings.Contains(d.Message, "wrappkg.GrowAll") || !strings.Contains(d.Message, "shared via") {
		t.Errorf("unexpected message: %s", d.Message)
	}
}

// TestCallGraphFacadeResolution: the public xmlviews facade re-exports
// the internal packages; its one-line wrappers must resolve to real
// cross-package edges, and the internal facts must be visible through
// the same program.
func TestCallGraphFacadeResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the facade and its dependencies from source")
	}
	prog, err := lint.LoadPackages([]string{"xmlviews", "xmlviews/internal/view"})
	if err != nil {
		t.Fatalf("loading facade: %v", err)
	}
	g := prog.CallGraph()
	if !hasEdge(g, "xmlviews.NewStore", "xmlviews/internal/view.NewStore", lint.EdgeCall) {
		t.Errorf("facade re-export xmlviews.NewStore -> view.NewStore not resolved")
	}
	for _, key := range []string{
		"xmlviews/internal/view.Store.Relation",
		"xmlviews/internal/view.Snapshot.Relation",
		"xmlviews/internal/view.Snapshot.Blocks",
	} {
		if !prog.Facts().SharedReturn[key] {
			t.Errorf("%s's sharedreturn annotation not visible through the facade program", key)
		}
	}
}
