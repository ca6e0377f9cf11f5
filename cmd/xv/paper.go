package main

import (
	"fmt"
	"io"
	"time"

	"xmlviews/internal/experiments"
)

// runPaper regenerates the tables and figures of the paper's evaluation
// (Section 5):
//
//	xv paper -exp table1      Table 1: corpora and summary statistics
//	xv paper -exp fig13a      Figure 13 (top): XMark pattern containment
//	xv paper -exp fig13b      Figure 13 (bottom): synthetic containment
//	xv paper -exp fig14       Figure 14: DBLP containment + optional ablation
//	xv paper -exp fig15       Figure 15: XMark query rewriting
//	xv paper -exp ablation    Enhanced vs plain summary rewriting
//	xv paper -exp all         Everything (default)
//
// Flags -scale, -views and -persize trade runtime for fidelity.
func runPaper(c cli, args []string) error {
	fs := c.flags("paper")
	exp := fs.String("exp", "all", "experiment: table1, fig13a, fig13b, fig14, fig15, ablation, all")
	scale := fs.Int("scale", 1, "document scale multiplier for table1")
	views := fs.Int("views", 100, "random views for fig15 (paper: 100)")
	perSize := fs.Int("persize", 12, "synthetic patterns per (n,r) point (paper: 40)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *scale < 0:
		return fmt.Errorf("negative scale %d", *scale)
	case *views < 0:
		return fmt.Errorf("negative views %d", *views)
	case *perSize < 1:
		return fmt.Errorf("persize %d is not positive", *perSize)
	}

	all := []struct {
		name string
		run  func(io.Writer) error
	}{
		{"table1", func(w io.Writer) error { return table1(w, *scale) }},
		{"fig13a", fig13a},
		{"fig13b", func(w io.Writer) error { return fig13b(w, *perSize) }},
		{"fig14", func(w io.Writer) error { return fig14(w, *perSize) }},
		{"fig15", func(w io.Writer) error { return fig15(w, *views) }},
		{"ablation", ablation},
	}
	ran := false
	for _, e := range all {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		fmt.Fprintf(c.stdout, "== %s ==\n", e.name)
		if err := e.run(c.stdout); err != nil {
			return fmt.Errorf("%s: %v", e.name, err)
		}
		fmt.Fprintln(c.stdout)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func table1(w io.Writer, scale int) error {
	rows := experiments.Table1(scale)
	fmt.Fprintf(w, "%-12s %10s %10s %6s %8s %8s %12s\n", "Doc.", "nodes", "approx KB", "|S|", "nS", "n1", "build")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %10d %6d %8d %8d %12s\n",
			r.Name, r.Nodes, r.ApproxKB, r.S, r.Strong, r.OneToOne, r.BuildTime.Round(time.Microsecond))
	}
	return nil
}

func fig13a(w io.Writer) error {
	s := experiments.XMarkSummary()
	fmt.Fprintf(w, "XMark summary: %d nodes\n", s.Size())
	rows, err := experiments.Fig13XMarkQueries(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s %14s\n", "query", "|modS(p)|", "containment")
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-5d %12d %14s\n", r.Query, r.ModelSize, r.Time.Round(time.Microsecond))
	}
	return nil
}

func fig13b(w io.Writer, perSize int) error {
	s := experiments.XMarkSummary()
	cfg := experiments.DefaultSyntheticConfig("item", "name", "keyword")
	cfg.PerSize = perSize
	rows, err := experiments.Synthetic(s, cfg)
	if err != nil {
		return err
	}
	printSynthetic(w, rows)
	return nil
}

func fig14(w io.Writer, perSize int) error {
	s := experiments.DBLPSummary()
	fmt.Fprintf(w, "DBLP'05 summary: %d nodes\n", s.Size())
	cfg := experiments.DefaultSyntheticConfig("article", "author", "title")
	cfg.PerSize = perSize
	rows, err := experiments.Synthetic(s, cfg)
	if err != nil {
		return err
	}
	printSynthetic(w, rows)

	fmt.Fprintln(w, "\noptional-edge ablation (r=1):")
	for _, opt := range []float64{0, 0.5} {
		c := cfg
		c.Optional = opt
		c.Arities = []int{1}
		orows, err := experiments.Synthetic(s, c)
		if err != nil {
			return err
		}
		var pos, neg time.Duration
		var np, nn int
		for _, r := range orows {
			if r.PosCount > 0 {
				pos, np = pos+r.Positive, np+1
			}
			if r.NegCount > 0 {
				neg, nn = neg+r.Negative, nn+1
			}
		}
		if np > 0 {
			pos /= time.Duration(np)
		}
		if nn > 0 {
			neg /= time.Duration(nn)
		}
		fmt.Fprintf(w, "  optional=%.0f%%  avg positive %v  avg negative %v\n", opt*100,
			pos.Round(time.Microsecond), neg.Round(time.Microsecond))
	}
	return nil
}

func printSynthetic(w io.Writer, rows []experiments.SyntheticRow) {
	fmt.Fprintf(w, "%4s %3s %14s %6s %14s %6s\n", "n", "r", "positive", "#", "negative", "#")
	for _, r := range rows {
		fmt.Fprintf(w, "%4d %3d %14s %6d %14s %6d\n",
			r.N, r.R, r.Positive.Round(time.Microsecond), r.PosCount,
			r.Negative.Round(time.Microsecond), r.NegCount)
	}
}

func fig15(w io.Writer, views int) error {
	s := experiments.XMarkSummary()
	rows, err := experiments.Fig15(s, views)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s %12s %12s %4s %10s %10s\n",
		"query", "setup", "first", "total", "#rw", "kept", "explored")
	keptSum, totalSum := 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "Q%-5d %12s %12s %12s %4d %6d/%-4d %10d\n",
			r.Query, r.Setup.Round(time.Microsecond), r.First.Round(time.Microsecond),
			r.Total.Round(time.Microsecond), r.Rewritings, r.ViewsKept, r.ViewsTotal, r.PlansExplored)
		keptSum += r.ViewsKept
		totalSum += r.ViewsTotal
	}
	if totalSum > 0 {
		fmt.Fprintf(w, "view pruning kept %.0f%% on average (paper: ~57%%)\n",
			100*float64(keptSum)/float64(totalSum))
	}
	return nil
}

func ablation(w io.Writer) error {
	row, err := experiments.AblationEnhancedSummary()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s:\n  enhanced summary: %d rewritings (%v)\n  plain summary:    %d rewritings (%v)\n",
		row.Name, row.EnhancedRewritings, row.EnhancedTime.Round(time.Microsecond),
		row.PlainRewritings, row.PlainTime.Round(time.Microsecond))
	return nil
}
