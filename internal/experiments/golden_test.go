package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xmlviews/internal/summary"
)

// The paper's containment results are pinned by testdata/paper.golden:
// Table 1's summary statistics, Figure 13's canonical model sizes and
// self-containment verdicts, the synthetic containment counts of Figures
// 13 (bottom) and 14 at a small fixed configuration, and the ablation's
// rewriting counts. Results only, never timings. Regenerate only on
// purpose:
//
//	go test ./internal/experiments -run TestPaperGolden -update
var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current code")

const paperGoldenFile = "testdata/paper.golden"

// paperResults renders every result the golden pins.
func paperResults(t *testing.T) string {
	var b strings.Builder
	b.WriteString("== table1 (scale 1): |S| nS n1\n")
	for _, r := range Table1(1) {
		fmt.Fprintf(&b, "%s %d %d %d\n", r.Name, r.S, r.Strong, r.OneToOne)
	}

	b.WriteString("== fig13a: query |modS(p)| p⊆p\n")
	rows, err := Fig13XMarkQueries(XMarkSummary())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "Q%d %d %v\n", r.Query, r.ModelSize, r.SelfContained)
	}

	synthetic := []struct {
		name string
		s    *summary.Summary
		cfg  SyntheticConfig
	}{
		{"fig13b xmark", XMarkSummary(), DefaultSyntheticConfig("item", "name", "keyword")},
		{"fig14 dblp", DBLPSummary(), DefaultSyntheticConfig("article", "author", "title")},
	}
	for _, sy := range synthetic {
		cfg := sy.cfg
		cfg.Sizes = []int{3, 5}
		cfg.PerSize = 4
		fmt.Fprintf(&b, "== %s (sizes %v, %d per size, seed %d): n r positive negative\n",
			sy.name, cfg.Sizes, cfg.PerSize, cfg.Seed)
		srows, err := Synthetic(sy.s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range srows {
			fmt.Fprintf(&b, "%d %d %d %d\n", r.N, r.R, r.PosCount, r.NegCount)
		}
	}

	b.WriteString("== ablation: enhanced plain\n")
	row, err := AblationEnhancedSummary()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "%d %d\n", row.EnhancedRewritings, row.PlainRewritings)
	return b.String()
}

func TestPaperGolden(t *testing.T) {
	got := paperResults(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(paperGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if got != string(want) {
		t.Errorf("paper results diverged from %s:\ngot:\n%s\nwant:\n%s", paperGoldenFile, got, want)
	}
}
