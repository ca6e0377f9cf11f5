// Package experiments implements the paper's Section 5 evaluation: one
// driver per table/figure, shared by `xv paper` and the root benchmark
// suite. Each driver returns structured rows so callers can print the same
// series the paper plots.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/patgen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmark"
	"xmlviews/internal/xmltree"
)

// Table1Row is one line of Table 1: a document and its summary statistics.
type Table1Row struct {
	Name      string
	Nodes     int
	ApproxKB  int
	S         int // |S|
	Strong    int // nS
	OneToOne  int // n1
	BuildTime time.Duration
}

// Table1 generates the eight corpora analogs and summarizes them. scale
// multiplies every corpus size (1 = quick, 8 = heavier).
func Table1(scale int) []Table1Row {
	if scale <= 0 {
		scale = 1
	}
	docs := []struct {
		name string
		doc  *xmltree.Document
	}{
		{"Shakespeare", datagen.Shakespeare(4*scale, 11)},
		{"Nasa", datagen.Nasa(6*scale, 12)},
		{"SwissProt", datagen.SwissProt(8*scale, 13)},
		{"XMark-S", datagen.XMark(3*scale, 14)},
		{"XMark-M", datagen.XMark(12*scale, 14)},
		{"XMark-L", datagen.XMark(24*scale, 14)},
		{"DBLP'02", datagen.DBLP(10*scale, 15, false)},
		{"DBLP'05", datagen.DBLP(20*scale, 15, true)},
	}
	rows := make([]Table1Row, 0, len(docs))
	for _, d := range docs {
		start := time.Now()
		s := summary.Build(d.doc)
		build := time.Since(start)
		ns, n1 := s.Stats()
		rows = append(rows, Table1Row{
			Name: d.name, Nodes: d.doc.Size(),
			ApproxKB: datagen.ApproxBytes(d.doc) / 1024,
			S:        s.Size(), Strong: ns, OneToOne: n1, BuildTime: build,
		})
	}
	return rows
}

// XMarkSummary builds the reference XMark summary used by the pattern
// experiments (the analog of the paper's 548-node summary).
func XMarkSummary() *summary.Summary {
	return summary.Build(datagen.XMark(24, 14))
}

// DBLPSummary builds the DBLP'05 summary for Figure 14.
func DBLPSummary() *summary.Summary {
	return summary.Build(datagen.DBLP(20, 15, true))
}

// Fig13QueryRow is one bar of Figure 13 (top): an XMark query pattern, its
// canonical model size, and its self-containment decision time.
type Fig13QueryRow struct {
	Query     int
	ModelSize int
	Time      time.Duration
}

// Fig13XMarkQueries measures canonical model size and self-containment
// time for the 20 XMark queries (Figure 13, top).
func Fig13XMarkQueries(s *summary.Summary) ([]Fig13QueryRow, error) {
	rows := make([]Fig13QueryRow, 0, xmark.Count)
	// One summary-implication cache across the 20 decisions (one summary).
	opts := core.DefaultContainOptions()
	opts.Subsume = core.NewSubsumeCache(0)
	for i := 1; i <= xmark.Count; i++ {
		q := xmark.Query(i)
		model, err := core.Model(q, s)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %v", i, err)
		}
		start := time.Now()
		ok, _, err := core.ContainedWith(q, []*pattern.Pattern{xmark.Query(i)}, s, opts)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %v", i, err)
		}
		if !ok {
			return nil, fmt.Errorf("Q%d not self-contained", i)
		}
		rows = append(rows, Fig13QueryRow{Query: i, ModelSize: len(model), Time: time.Since(start)})
	}
	return rows, nil
}

// SyntheticRow is one point of the synthetic containment curves
// (Figures 13 bottom and 14): pattern size n, return arity r, and the mean
// decision times for positive and negative outcomes.
type SyntheticRow struct {
	N, R               int
	Positive, Negative time.Duration
	PosCount, NegCount int
}

// SyntheticConfig parameterizes the synthetic containment experiment.
type SyntheticConfig struct {
	Sizes        []int    // pattern sizes n
	Arities      []int    // return arities r
	PerSize      int      // patterns generated per (n, r); the paper uses 40
	ReturnLabels []string // labels drawn for return nodes, by arity
	Optional     float64  // optional-edge probability (paper: 0.5)
	Seed         int64
}

// DefaultSyntheticConfig mirrors Section 5: n = 3..13, r = 1..3, return
// labels fixed per summary.
func DefaultSyntheticConfig(labels ...string) SyntheticConfig {
	return SyntheticConfig{
		Sizes:        []int{3, 5, 7, 9, 11, 13},
		Arities:      []int{1, 2, 3},
		PerSize:      12,
		ReturnLabels: labels,
		Optional:     0.5,
		Seed:         20061017,
	}
}

// Synthetic runs pairwise containment over generated patterns and averages
// decision times, separating positive from negative outcomes (the paper's
// Figure 13 bottom / Figure 14 protocol: p(n,i,r) ⊆S p(n,j,r)).
func Synthetic(s *summary.Summary, cfg SyntheticConfig) ([]SyntheticRow, error) {
	r := rand.New(rand.NewSource(cfg.Seed))
	copts := relaxedContain()
	copts.Subsume = core.NewSubsumeCache(0) // shared across the pair loop
	var rows []SyntheticRow
	for _, n := range cfg.Sizes {
		for _, arity := range cfg.Arities {
			if arity > len(cfg.ReturnLabels) {
				continue
			}
			pats := make([]*pattern.Pattern, 0, cfg.PerSize)
			for len(pats) < cfg.PerSize {
				gcfg := patgen.DefaultConfig(n, cfg.ReturnLabels[:arity]...)
				gcfg.Optional = cfg.Optional
				p, err := patgen.Generate(s, gcfg, r)
				if err != nil {
					return nil, err
				}
				pats = append(pats, p)
			}
			row := SyntheticRow{N: n, R: arity}
			var posTotal, negTotal time.Duration
			for i := 0; i < len(pats); i++ {
				for j := i; j < len(pats); j++ {
					start := time.Now()
					ok, _, err := core.ContainedWith(pats[i], []*pattern.Pattern{pats[j]}, s, copts)
					el := time.Since(start)
					if err != nil {
						continue // canonical model overflow: skip the pair
					}
					if ok {
						posTotal += el
						row.PosCount++
					} else {
						negTotal += el
						row.NegCount++
					}
				}
			}
			if row.PosCount > 0 {
				row.Positive = posTotal / time.Duration(row.PosCount)
			}
			if row.NegCount > 0 {
				row.Negative = negTotal / time.Duration(row.NegCount)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func relaxedContain() core.ContainOptions {
	opts := core.DefaultContainOptions()
	opts.IgnoreAttrs = true
	opts.Model.MaxTrees = 20000
	return opts
}

// Fig15Row is one query of Figure 15: the rewriting timings and pruning
// statistics.
type Fig15Row struct {
	Query                 int
	Setup, First, Total   time.Duration
	Rewritings            int
	ViewsKept, ViewsTotal int
	PlansExplored         int
}

// Fig15Views builds the paper's view set: one 2-node view per XMark tag
// (root + tag, storing ID and V) plus extra random 3-node views with 50%
// optional edges and per-node P(ID,V) = 0.75.
func Fig15Views(s *summary.Summary, randomViews int, seed int64) []*core.View {
	r := rand.New(rand.NewSource(seed))
	var views []*core.View
	seenLabel := map[string]bool{}
	for _, id := range s.NodeIDs()[1:] {
		label := s.Node(id).Label
		if seenLabel[label] {
			continue
		}
		seenLabel[label] = true
		p := pattern.NewPattern(s.Node(summary.RootID).Label)
		n := p.AddChild(p.Root, label, pattern.Descendant)
		n.Attrs = pattern.AttrID | pattern.AttrValue
		views = append(views, &core.View{
			Name:    "seed:" + label,
			Pattern: p.Finish(), DerivableParentIDs: true,
		})
	}
	for i := 0; i < randomViews; i++ {
		v := randomThreeNodeView(s, r, i)
		if v != nil {
			views = append(views, v)
		}
	}
	return views
}

// randomThreeNodeView builds root→a→b with random axes, optional edges
// with probability 0.5, and ID,V stored with probability 0.75 per node.
func randomThreeNodeView(s *summary.Summary, r *rand.Rand, i int) *core.View {
	ids := s.NodeIDs()[1:]
	a := ids[r.Intn(len(ids))]
	desc := s.Descendants(a)
	if len(desc) == 0 {
		return nil
	}
	b := desc[r.Intn(len(desc))]
	p := pattern.NewPattern(s.Node(summary.RootID).Label)
	axisA := pattern.Descendant
	if s.Node(a).Parent == summary.RootID && r.Float64() < 0.5 {
		axisA = pattern.Child
	}
	na := p.AddChild(p.Root, s.Node(a).Label, axisA)
	axisB := pattern.Descendant
	if s.Node(b).Parent == a && r.Float64() < 0.5 {
		axisB = pattern.Child
	}
	nb := p.AddChild(na, s.Node(b).Label, axisB)
	stored := false
	for _, n := range []*pattern.Node{na, nb} {
		if r.Float64() < 0.75 {
			n.Attrs = pattern.AttrID | pattern.AttrValue
			stored = true
		}
	}
	if !stored {
		nb.Attrs = pattern.AttrID | pattern.AttrValue
	}
	if r.Float64() < 0.5 {
		nb.Optional = true
	}
	return &core.View{
		Name:    fmt.Sprintf("rnd%d:%s/%s", i, s.Node(a).Label, s.Node(b).Label),
		Pattern: p.Finish(), DerivableParentIDs: true,
	}
}

// Fig15 rewrites the 20 XMark query patterns against the view set. One
// summary-implication cache is shared across all 20 queries (they run
// over the same summary).
func Fig15(s *summary.Summary, randomViews int) ([]Fig15Row, error) {
	views := Fig15Views(s, randomViews, 77)
	opts := core.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 3
	opts.MaxResults = 4
	opts.MaxExplored = 30000
	opts.MaxNavDepth = 3
	opts.Subsume = core.NewSubsumeCache(0)
	rows := make([]Fig15Row, 0, xmark.Count)
	for i := 1; i <= xmark.Count; i++ {
		res, err := core.Rewrite(xmark.Query(i), views, s, opts)
		if err != nil {
			return nil, fmt.Errorf("Q%d: %v", i, err)
		}
		rows = append(rows, Fig15Row{
			Query: i, Setup: res.Setup, First: res.First, Total: res.Total,
			Rewritings: len(res.Rewritings),
			ViewsKept:  res.ViewsKept, ViewsTotal: res.ViewsTotal,
			PlansExplored: res.PlansExplored,
		})
	}
	return rows, nil
}

// AblationRow compares enhanced-summary rewriting against plain summaries
// on the running example (Section 1).
type AblationRow struct {
	Name               string
	EnhancedRewritings int
	PlainRewritings    int
	EnhancedTime       time.Duration
	PlainTime          time.Duration
}

// AblationEnhancedSummary runs the strong-edge ablation: a view without
// the query's mail condition rewrites the query only when the summary
// records that every item has a mail descendant.
func AblationEnhancedSummary() (AblationRow, error) {
	sStrong := summary.MustParse("site(!regions(!item(!name !mail =location)))")
	v := &core.View{Name: "items", Pattern: pattern.MustParse(`site(//item[id](/name[v]))`), DerivableParentIDs: true}
	q := pattern.MustParse(`site(//item[id](/name[v] /mail))`)

	opts := core.DefaultRewriteOptions()
	start := time.Now()
	enh, err := core.Rewrite(q, []*core.View{v}, sStrong, opts)
	if err != nil {
		return AblationRow{}, err
	}
	enhTime := time.Since(start)

	opts.Model.Enhanced = false
	start = time.Now()
	plain, err := core.Rewrite(q, []*core.View{v}, sStrong, opts)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:               "strong-edge mail constraint",
		EnhancedRewritings: len(enh.Rewritings),
		PlainRewritings:    len(plain.Rewritings),
		EnhancedTime:       enhTime,
		PlainTime:          time.Since(start),
	}, nil
}
