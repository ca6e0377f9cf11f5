package main

import (
	"bufio"
	"fmt"
	"math"
	"time"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/datagen"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// runGen writes one of the evaluation's synthetic corpora as XML.
func runGen(c cli, args []string) error {
	fs := c.flags("gen")
	corpus := fs.String("corpus", "xmark", "xmark, dblp02, dblp05, shakespeare, nasa, swissprot")
	scale := fs.Int("scale", 5, "document scale")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale < 0 {
		return fmt.Errorf("negative scale %d", *scale)
	}
	var doc *xmltree.Document
	switch *corpus {
	case "xmark":
		doc = datagen.XMark(*scale, *seed)
	case "dblp02":
		doc = datagen.DBLP(*scale, *seed, false)
	case "dblp05":
		doc = datagen.DBLP(*scale, *seed, true)
	case "shakespeare":
		doc = datagen.Shakespeare(*scale, *seed)
	case "nasa":
		doc = datagen.Nasa(*scale, *seed)
	case "swissprot":
		doc = datagen.SwissProt(*scale, *seed)
	default:
		return fmt.Errorf("unknown corpus %q", *corpus)
	}
	w := bufio.NewWriter(c.stdout)
	if err := doc.WriteXML(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return w.Flush()
}

// runSummary builds the enhanced path summary (Dataguide) of the document
// named by its argument, or of standard input, and prints its statistics
// and structure.
func runSummary(c cli, args []string) error {
	fs := c.flags("summary")
	stats := fs.Bool("stats", true, "print summary statistics (Table 1 columns)")
	tree := fs.Bool("tree", false, "print the summary tree (strong edges '!', one-to-one '=')")
	paths := fs.Bool("paths", false, "print every rooted path with its node count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	name := fs.Arg(0)
	doc, err := c.readDocument(name)
	if err != nil {
		return err
	}
	if name == "" || name == "-" {
		name = "<stdin>"
	}
	s := summary.Build(doc)
	if *stats {
		ns, n1 := s.Stats()
		fmt.Fprintf(c.stdout, "%s: %d nodes, |S| = %d, strong edges = %d, one-to-one = %d\n",
			name, doc.Size(), s.Size(), ns, n1)
	}
	if *tree {
		fmt.Fprintln(c.stdout, s)
	}
	if *paths {
		for _, id := range s.NodeIDs() {
			fmt.Fprintf(c.stdout, "%6d  %s\n", s.Node(id).Count, s.PathString(id))
		}
	}
	return nil
}

// runContain decides tree pattern containment under summary constraints
// (Proposition 3.1 and its Section 4 extensions). When p is not contained
// it prints a counterexample document and returns errNo.
func runContain(c cli, args []string) error {
	fs := c.flags("contain")
	sumSrc := fs.String("summary", "", "summary in parenthesized notation, e.g. 'a(!b(c) d)'")
	docFile := fs.String("doc", "", "build the summary from this XML document instead")
	pSrc := fs.String("p", "", "contained pattern")
	qSrc := fs.String("q", "", "container pattern")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pSrc == "" || *qSrc == "" {
		return fmt.Errorf("need both -p and -q")
	}
	if (*sumSrc == "") == (*docFile == "") {
		return fmt.Errorf("need exactly one of -summary and -doc")
	}
	_, s, err := c.loadSummary(*docFile, *sumSrc)
	if err != nil {
		return err
	}
	p, err := pattern.Parse(*pSrc)
	if err != nil {
		return err
	}
	q, err := pattern.Parse(*qSrc)
	if err != nil {
		return err
	}
	ok, witness, err := core.ContainedWith(p, []*pattern.Pattern{q}, s, core.DefaultContainOptions())
	if err != nil {
		return err
	}
	if ok {
		fmt.Fprintln(c.stdout, "p ⊆S q: yes")
		return nil
	}
	fmt.Fprintln(c.stdout, "p ⊆S q: no")
	if witness != nil {
		if doc, err := witness.Realize(); err == nil {
			fmt.Fprintln(c.stdout, "counterexample document:", doc.Root)
		}
	}
	return errNo
}

// runRewrite rewrites a tree pattern query over materialized views
// (Algorithm 1) and optionally executes the chosen plan against a
// document. Finding no rewriting returns errNo.
func runRewrite(c cli, args []string) error {
	fs := c.flags("rewrite")
	docFile := fs.String("doc", "", "XML document (summary source and execution target)")
	sumSrc := fs.String("summary", "", "summary notation (alternative to -doc for rewriting only)")
	qSrc := fs.String("q", "", "query pattern")
	exec := fs.Bool("exec", false, "execute the chosen rewriting against -doc")
	first := fs.Bool("first", false, "stop at the first rewriting")
	showCost := fs.Bool("cost", false, "estimate each rewriting's cost and pick the cheapest")
	var vdefs viewFlags
	fs.Var(&vdefs, "v", "view definition name=pattern (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *qSrc == "" || len(vdefs) == 0 || (*docFile == "" && *sumSrc == "") {
		fs.Usage()
		return fmt.Errorf("need -q, at least one -v, and -doc or -summary")
	}
	if *exec && *docFile == "" {
		return fmt.Errorf("-exec requires -doc")
	}

	doc, s, err := c.loadSummary(*docFile, *sumSrc)
	if err != nil {
		return err
	}
	q, err := pattern.Parse(*qSrc)
	if err != nil {
		return err
	}
	views, err := parseViews(vdefs)
	if err != nil {
		return err
	}
	opts := core.DefaultRewriteOptions()
	opts.FirstOnly = *first
	res, err := core.Rewrite(q, views, s, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "views kept after pruning: %d/%d; plans explored: %d; setup %v; total %v\n",
		res.ViewsKept, res.ViewsTotal, res.PlansExplored,
		res.Setup.Round(time.Microsecond), res.Total.Round(time.Microsecond))
	if len(res.Rewritings) == 0 {
		if res.Exhausted {
			fmt.Fprintln(c.stdout, "search budget exhausted")
		} else {
			fmt.Fprintln(c.stdout, "no equivalent rewriting found")
		}
		return errNo
	}

	// Without -cost the first rewriting executes; with it the cheapest
	// plan under the statistics does.
	chosen := res.Rewritings[0]
	var st *view.Store
	if *exec {
		st = view.NewStore(doc, views)
	}
	if *showCost {
		// The summary built from a document carries exact per-path
		// cardinalities; without -exec those are the estimates (nothing
		// materializes). With -exec, every view some candidate rewriting
		// scans is materialized to measure real row counts — costlier up
		// front (losing plans' extents included), but the estimates then
		// reflect the extents execution would see.
		stats := cost.FromSummary(s)
		if st != nil {
			for _, v := range scannedBaseViews(res.Rewritings) {
				stats.Rows[v.Name] = st.Relation(v).Len()
			}
		}
		est := cost.NewEstimator(stats)
		var bestCost float64
		chosen, bestCost, _ = core.ChooseBest(res, est.PlanCost)
		for i, p := range res.Rewritings {
			pc, err := est.Estimate(p)
			if err != nil {
				fmt.Fprintf(c.stdout, "rewriting %d: %s (cost: %v)\n", i+1, p, err)
				continue
			}
			mark := ""
			if p == chosen {
				mark = "  <- cheapest"
			}
			fmt.Fprintf(c.stdout, "rewriting %d: %s (%s)%s\n", i+1, p, pc, mark)
		}
		if math.IsInf(bestCost, 1) {
			// No rewriting could be estimated (the serve path reports the
			// same condition as cost -1): fall back to the first found.
			fmt.Fprintf(c.stdout, "chosen: %s (no estimate possible; first of %d alternative(s))\n", chosen, len(res.Rewritings))
		} else {
			fmt.Fprintf(c.stdout, "chosen: %s (cost %.1f of %d alternative(s))\n", chosen, bestCost, len(res.Rewritings))
		}
	} else {
		for i, p := range res.Rewritings {
			fmt.Fprintf(c.stdout, "rewriting %d: %s\n", i+1, p)
		}
	}
	if *exec {
		out, err := algebra.Execute(chosen, st)
		if err != nil {
			return err
		}
		fmt.Fprint(c.stdout, out.Rel.Sorted())
	}
	return nil
}

// scannedBaseViews collects the distinct materializable views the
// rewritings scan — base views plus the bases behind navigation views
// (the cost model prices a navigation scan through its base extent).
func scannedBaseViews(plans []*core.Plan) []*core.View {
	seen := map[string]bool{}
	var out []*core.View
	for _, p := range plans {
		p.EachScan(func(v *core.View) {
			if v.Nav != nil {
				v = v.Nav.Base
			}
			if !seen[v.Name] {
				seen[v.Name] = true
				out = append(out, v)
			}
		})
	}
	return out
}
