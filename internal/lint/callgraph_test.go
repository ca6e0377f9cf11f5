package lint_test

import (
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

// edge returns caller's call edge to callee, or nil.
func edge(g *lint.CallGraph, caller, callee string) *lint.Edge {
	n := g.Nodes[caller]
	if n == nil {
		return nil
	}
	for _, e := range n.Out {
		if e.Callee == callee {
			return e
		}
	}
	return nil
}

// TestCallGraphChainEdges pins the edges the polls-ctx fact consumes:
// cross-package calls resolve to fully-keyed nodes, and a call inside a
// function literal is marked as such.
func TestCallGraphChainEdges(t *testing.T) {
	g := loadChain(t).CallGraph()

	for _, want := range [][2]string{
		{"fixture/chain/wrappkg.CheckStop", "fixture/chain/storepkg.Cancelled"},
		{"fixture/chain/apppkg.Stop", "fixture/chain/wrappkg.CheckStop"},
	} {
		e := edge(g, want[0], want[1])
		if e == nil {
			t.Errorf("missing call edge %s -> %s", want[0], want[1])
		} else if e.InFuncLit {
			t.Errorf("direct call %s -> %s marked as inside a function literal", want[0], want[1])
		}
	}
	e := edge(g, "fixture/chain/apppkg.StopLater", "fixture/chain/wrappkg.CheckStop")
	if e == nil || !e.InFuncLit {
		t.Errorf("the call inside StopLater's function literal: got %+v, want an edge with InFuncLit", e)
	}
	if n := g.Nodes["fixture/chain/storepkg.Cancelled"]; n == nil || n.Pkg == nil || n.Decl == nil {
		t.Errorf("storepkg.Cancelled node lost its package or declaration")
	}
}

// TestFactsPropagateAcrossChain: a fact seeded in storepkg must survive
// the wrappkg wrapper — the fixpoint that makes ctxpoll interprocedural
// rather than per-package — but not a function literal.
func TestFactsPropagateAcrossChain(t *testing.T) {
	facts := loadChain(t).Facts()

	if !facts.PollsCtx["fixture/chain/storepkg.Cancelled"] {
		t.Errorf("Cancelled's select-based poll not detected")
	}
	if !facts.PollsCtx["fixture/chain/wrappkg.CheckStop"] {
		t.Errorf("polls-ctx fact did not propagate through CheckStop")
	}
	if !facts.PollsCtx["fixture/chain/apppkg.Stop"] {
		t.Errorf("polls-ctx fact did not cross the second package boundary into Stop")
	}
	if facts.PollsCtx["fixture/chain/apppkg.StopLater"] {
		t.Errorf("polls-ctx fact flowed through a function literal into StopLater")
	}
}

// TestCallGraphFacadeResolution: the public xmlviews facade re-exports
// the internal packages; its one-line wrappers must resolve to real
// cross-package edges.
func TestCallGraphFacadeResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the facade and its dependencies from source")
	}
	prog, err := lint.LoadPackages([]string{"xmlviews", "xmlviews/internal/view"})
	if err != nil {
		t.Fatalf("loading facade: %v", err)
	}
	if edge(prog.CallGraph(), "xmlviews.NewStore", "xmlviews/internal/view.NewStore") == nil {
		t.Errorf("facade re-export xmlviews.NewStore -> view.NewStore not resolved")
	}
}
