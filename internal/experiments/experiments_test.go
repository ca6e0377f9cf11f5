package experiments

import (
	"testing"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/xmark"
)

func TestTable1Shape(t *testing.T) {
	rows := Table1(1)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.S == 0 || r.Nodes == 0 || r.Strong == 0 {
			t.Errorf("%s: degenerate row %+v", r.Name, r)
		}
		if r.S > r.Nodes {
			t.Errorf("%s: summary larger than document", r.Name)
		}
	}
	// Qualitative Table 1 shapes: summaries are small and document size
	// dominates; DBLP'05 has more paths than DBLP'02; XMark summaries grow
	// slowly with scale.
	if byName["DBLP'05"].S <= byName["DBLP'02"].S {
		t.Error("DBLP'05 should have more paths than DBLP'02")
	}
	if byName["XMark-L"].Nodes < 4*byName["XMark-S"].Nodes {
		t.Error("XMark-L should be much larger than XMark-S")
	}
	if float64(byName["XMark-L"].S) > 1.4*float64(byName["XMark-S"].S) {
		t.Error("XMark summary should grow slowly")
	}
}

func TestFig13TopRuns(t *testing.T) {
	s := XMarkSummary()
	rows, err := Fig13XMarkQueries(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != xmark.Count {
		t.Fatalf("rows = %d", len(rows))
	}
	// Q7 is the canonical-model outlier.
	max, maxQ := 0, 0
	for _, r := range rows {
		if r.ModelSize > max {
			max, maxQ = r.ModelSize, r.Query
		}
	}
	if maxQ != 7 {
		t.Errorf("outlier is Q%d (size %d), expected Q7", maxQ, max)
	}
}

func TestSyntheticSmall(t *testing.T) {
	s := DBLPSummary()
	cfg := DefaultSyntheticConfig("article", "author")
	cfg.Sizes = []int{3, 5}
	cfg.PerSize = 4
	rows, err := Synthetic(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 sizes × 2 arities
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PosCount == 0 {
			t.Errorf("n=%d r=%d: no positive cases (self-containment at least)", r.N, r.R)
		}
	}
}

func TestFig15SmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("rewriting workload")
	}
	s := XMarkSummary()
	views := Fig15Views(s, 5, 77)
	if len(views) < 40 {
		t.Fatalf("view set too small: %d", len(views))
	}
	opts := core.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 3
	opts.FirstOnly = true
	opts.MaxExplored = 12000
	opts.MaxNavDepth = 2
	start := time.Now()
	res, err := core.Rewrite(xmark.Query(1), views, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Q1: %d rewritings in %v (explored %d, views %d/%d)",
		len(res.Rewritings), time.Since(start), res.PlansExplored, res.ViewsKept, res.ViewsTotal)
	if res.ViewsKept >= res.ViewsTotal {
		t.Error("pruning should drop views")
	}
	if len(res.Rewritings) == 0 {
		t.Error("Q1 should be rewritable from the seed views (outer join)")
	}
}

func TestAblation(t *testing.T) {
	row, err := AblationEnhancedSummary()
	if err != nil {
		t.Fatal(err)
	}
	if row.EnhancedRewritings == 0 {
		t.Error("enhanced summary should enable the rewriting")
	}
	if row.PlainRewritings != 0 {
		t.Error("plain summary must not find a rewriting")
	}
}
