// Benchmarks regenerating the paper's evaluation artifacts (Section 5).
// One benchmark per table/figure plus the enhanced-summary ablation and
// the materialization and canonical-model costs; the xvbench command
// prints the corresponding human-readable tables.
package xmlviews_test

import (
	"fmt"
	"math/rand"
	"testing"

	"xmlviews"
	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/experiments"
	"xmlviews/internal/patgen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmark"
)

// BenchmarkTable1SummaryConstruction measures linear-time summary building
// over the eight corpora analogs (Table 1).
func BenchmarkTable1SummaryConstruction(b *testing.B) {
	docs := map[string]func() int{
		"Shakespeare": func() int { return summary.Build(datagen.Shakespeare(4, 11)).Size() },
		"Nasa":        func() int { return summary.Build(datagen.Nasa(6, 12)).Size() },
		"SwissProt":   func() int { return summary.Build(datagen.SwissProt(8, 13)).Size() },
		"XMark":       func() int { return summary.Build(datagen.XMark(12, 14)).Size() },
		"DBLP":        func() int { return summary.Build(datagen.DBLP(10, 15, true)).Size() },
	}
	for name, fn := range docs {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if fn() == 0 {
					b.Fatal("empty summary")
				}
			}
		})
	}
}

// BenchmarkFig13XMarkSelfContainment measures per-query containment over
// the 20 XMark patterns (Figure 13, top).
func BenchmarkFig13XMarkSelfContainment(b *testing.B) {
	s := experiments.XMarkSummary()
	opts := core.DefaultContainOptions()
	opts.Subsume = core.NewSubsumeCache(0) // shared per summary, as the experiments do
	for _, i := range []int{1, 5, 7, 14, 20} {
		q1, q2 := xmark.Query(i), xmark.Query(i)
		b.Run(queryName(i), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				ok, _, err := core.ContainedWith(q1, []*pattern.Pattern{q2}, s, opts)
				if err != nil || !ok {
					b.Fatalf("Q%d: %v %v", i, ok, err)
				}
			}
		})
	}
}

func queryName(i int) string {
	return fmt.Sprintf("Q%02d", i)
}

// BenchmarkFig13Synthetic measures synthetic-pattern containment at
// several sizes (Figure 13, bottom).
func BenchmarkFig13Synthetic(b *testing.B) {
	s := experiments.XMarkSummary()
	for _, n := range []int{3, 5, 7} {
		r := rand.New(rand.NewSource(1))
		cfg := patgen.DefaultConfig(n, "item")
		p1, err := patgen.Generate(s, cfg, r)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := patgen.Generate(s, cfg, r)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultContainOptions()
		opts.IgnoreAttrs = true
		opts.Model.MaxTrees = 20000
		opts.Subsume = core.NewSubsumeCache(0)
		b.Run(fmt.Sprintf("n=%02d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Canonical-model overflow counts as a (skipped) decision:
				// the Section 5 protocol also drops such pairs.
				_, _, _ = core.ContainedWith(p1, []*pattern.Pattern{p2}, s, opts)
			}
		})
	}
}

// BenchmarkFig14DBLP is the Figure 14 counterpart on the DBLP summary,
// plus the optional-edge factor (0% vs 50% optional edges).
func BenchmarkFig14DBLP(b *testing.B) {
	s := experiments.DBLPSummary()
	for _, opt := range []struct {
		name string
		prob float64
	}{{"optional=0", 0}, {"optional=50", 0.5}} {
		r := rand.New(rand.NewSource(2))
		cfg := patgen.DefaultConfig(7, "article")
		cfg.Optional = opt.prob
		p1, err := patgen.Generate(s, cfg, r)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := patgen.Generate(s, cfg, r)
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultContainOptions()
		opts.IgnoreAttrs = true
		opts.Subsume = core.NewSubsumeCache(0)
		b.Run(opt.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ContainedWith(p1, []*pattern.Pattern{p2}, s, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig15Rewriting measures Algorithm 1 on XMark queries against
// the seed + random view set (Figure 15). FirstOnly mirrors the paper's
// "first rewriting found fast" observation.
func BenchmarkFig15Rewriting(b *testing.B) {
	s := experiments.XMarkSummary()
	views := experiments.Fig15Views(s, 25, 77)
	opts := core.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 3
	opts.MaxNavDepth = 2
	opts.MaxExplored = 6000
	opts.FirstOnly = true
	for _, i := range []int{1, 5} {
		q := xmark.Query(i)
		b.Run(queryName(i), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := core.Rewrite(q, views, s, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEnhancedSummary measures the strong-edge rewriting
// enabler on the running example of Section 1.
func BenchmarkAblationEnhancedSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiments.AblationEnhancedSummary()
		if err != nil {
			b.Fatal(err)
		}
		if row.EnhancedRewritings == 0 || row.PlainRewritings != 0 {
			b.Fatalf("ablation wrong: %+v", row)
		}
	}
}

// BenchmarkMaterialization measures view materialization over the XMark
// document (the storage side of Figure 1).
func BenchmarkMaterialization(b *testing.B) {
	doc := datagen.XMark(8, 5)
	v1 := xmlviews.NewView("V1", xmlviews.MustParsePattern(
		`site(//item[id](?//listitem[id]))`))
	b.Run("V1-nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if view.Materialize(v1, doc).Len() == 0 {
				b.Fatal("empty view")
			}
		}
	})
	b.Run("V1-flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if view.MaterializeFlat(v1, doc).Len() == 0 {
				b.Fatal("empty view")
			}
		}
	})
}

// BenchmarkCanonicalModel measures mod_S(p) construction for the outlier
// query Q7 and a typical query (Section 5's |modS(p)| discussion).
func BenchmarkCanonicalModel(b *testing.B) {
	s := experiments.XMarkSummary()
	for _, i := range []int{1, 7} {
		q := xmark.Query(i)
		b.Run(queryName(i), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				if _, err := core.Model(q, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
