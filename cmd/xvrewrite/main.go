// Command xvrewrite rewrites a tree pattern query over materialized views
// (Algorithm 1) and optionally executes the plans against a document:
//
//	xvrewrite -doc auction.xml \
//	   -q 'site(//item[id](/name[v]))' \
//	   -v 'V1=site(//item[id])' -v 'V2=site(//name[id,v])' \
//	   -exec
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/cost"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

type viewFlags []string

func (v *viewFlags) String() string     { return strings.Join(*v, "; ") }
func (v *viewFlags) Set(s string) error { *v = append(*v, s); return nil }

// errNoRewriting distinguishes "search succeeded, found nothing" (exit 1,
// like grep) from flag/parse errors.
var errNoRewriting = fmt.Errorf("no equivalent rewriting found")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != errNoRewriting {
			fmt.Fprintln(os.Stderr, "xvrewrite:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("xvrewrite", flag.ContinueOnError)
	fs.SetOutput(stdout)
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

	var doc *xmltree.Document
	var s *summary.Summary
	if *docFile != "" {
		f, err := os.Open(*docFile)
		if err != nil {
			return err
		}
		var perr error
		doc, perr = xmltree.ParseXML(f)
		f.Close()
		if perr != nil {
			return perr
		}
		s = summary.Build(doc)
	} else {
		var err error
		s, err = summary.Parse(*sumSrc)
		if err != nil {
			return err
		}
	}

	q, err := pattern.Parse(*qSrc)
	if err != nil {
		return err
	}
	var views []*core.View
	for _, def := range vdefs {
		name, src, ok := strings.Cut(def, "=")
		if !ok {
			return fmt.Errorf("view definition %q is not name=pattern", def)
		}
		p, err := pattern.Parse(src)
		if err != nil {
			return err
		}
		views = append(views, &core.View{Name: name, Pattern: p, DerivableParentIDs: true})
	}

	opts := core.DefaultRewriteOptions()
	opts.FirstOnly = *first
	res, err := core.Rewrite(q, views, s, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "views kept after pruning: %d/%d; plans explored: %d; setup %v; total %v\n",
		res.ViewsKept, res.ViewsTotal, res.PlansExplored,
		res.Setup.Round(time.Microsecond), res.Total.Round(time.Microsecond))
	if len(res.Rewritings) == 0 {
		fmt.Fprintln(stdout, "no equivalent rewriting found")
		return errNoRewriting
	}

	// Without -cost the first rewriting executes (the pre-cost-model
	// behavior); with it the cheapest plan under the statistics does.
	chosen := res.Rewritings[0]
	var st *view.Store
	if doc != nil && *exec {
		st = view.NewStore(doc, views)
	}
	if *showCost {
		// With a document, the summary built from it carries exact
		// per-path cardinalities; without -exec those are the estimates
		// (nothing materializes). With -exec, every view some candidate
		// rewriting scans is materialized to measure real row counts —
		// costlier up front (losing plans' extents included), but the
		// estimates then reflect the extents execution would see.
		stats := cost.FromSummary(s)
		if st != nil {
			for _, v := range scannedBaseViews(res.Rewritings) {
				stats.Rows[v.Name] = st.Relation(v).Len()
			}
		}
		est := cost.NewEstimator(stats)
		// Estimate each rewriting once; ChooseBest then ranks from the
		// memoized results instead of re-running the estimator.
		costs := make([]cost.Cost, len(res.Rewritings))
		errs := make([]error, len(res.Rewritings))
		byPlan := map[*core.Plan]int{}
		for i, p := range res.Rewritings {
			costs[i], errs[i] = est.Estimate(p)
			byPlan[p] = i
		}
		var bestCost float64
		chosen, bestCost, _ = core.ChooseBest(res, func(p *core.Plan) (float64, error) {
			i := byPlan[p]
			return costs[i].Total, errs[i]
		})
		for i, p := range res.Rewritings {
			if errs[i] != nil {
				fmt.Fprintf(stdout, "rewriting %d: %s (cost: %v)\n", i+1, p, errs[i])
				continue
			}
			mark := ""
			if p == chosen {
				mark = "  <- cheapest"
			}
			fmt.Fprintf(stdout, "rewriting %d: %s (%s)%s\n", i+1, p, costs[i], mark)
		}
		if math.IsInf(bestCost, 1) {
			// No rewriting could be estimated (the serve path reports the
			// same condition as cost -1): fall back to the first found.
			fmt.Fprintf(stdout, "chosen: %s (no estimate possible; first of %d alternative(s))\n", chosen, len(res.Rewritings))
		} else {
			fmt.Fprintf(stdout, "chosen: %s (cost %.1f of %d alternative(s))\n", chosen, bestCost, len(res.Rewritings))
		}
	} else {
		for i, p := range res.Rewritings {
			fmt.Fprintf(stdout, "rewriting %d: %s\n", i+1, p)
		}
	}
	if *exec {
		if st == nil {
			return fmt.Errorf("-exec requires -doc")
		}
		out, err := algebra.Execute(chosen, st)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, out.Rel.Sorted())
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
