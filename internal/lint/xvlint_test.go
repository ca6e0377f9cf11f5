package lint_test

import (
	"testing"

	"xmlviews/internal/lint"
	"xmlviews/internal/lint/linttest"
)

// The fixture packages under testdata/ pin each analyzer from both
// sides: lines with a `// want "regexp"` comment must be flagged with a
// matching message, every other line must stay silent. Each fixture also
// contains a *Buggy function reproducing, shape for shape, a real defect
// this PR's first xvlint run found in the repo — so the analyzers are
// demonstrably able to catch the bugs they were built for.

func TestDetOrderFixtures(t *testing.T) {
	linttest.Run(t, "testdata/detorder", lint.DetOrder)
}

func TestCtxPollFixtures(t *testing.T) {
	linttest.Run(t, "testdata/ctxpoll", lint.CtxPoll)
}

// TestRepoIsClean runs the full suite over the real codebase: the tree
// must carry zero outstanding diagnostics, so a change that violates an
// invariant fails `go test` even before the CI lint job runs.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	prog, err := lint.LoadPackages([]string{"xmlviews/..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	diags := lint.Run(prog, lint.All(), lint.RunOptions{})
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func TestAppliesTo(t *testing.T) {
	a := &lint.Analyzer{Roots: []string{"xmlviews/internal/store"}}
	for path, want := range map[string]bool{
		"xmlviews/internal/store":     true,
		"xmlviews/internal/store/sub": true,
		"xmlviews/internal/storage":   false,
		"xmlviews/internal/serve":     false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	all := &lint.Analyzer{}
	if !all.AppliesTo("anything/at/all") {
		t.Errorf("an analyzer without Roots must apply everywhere")
	}
}
