package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/experiments"
	"xmlviews/internal/pattern"
	"xmlviews/internal/summary"
	"xmlviews/internal/xmark"
)

// The rewriting search is pinned by its results: testdata/rewrite.golden
// holds, per input row, the deterministic part of a RewriteResult (views
// kept/total, plans explored, and every rewriting's text in discovery
// order). It was written by a known-good search; a refactor that changes
// any row fails here. Regenerate only on purpose:
//
//	go test ./internal/core -run TestRewriteGolden -update
var update = flag.Bool("update", false, "rewrite testdata/rewrite.golden from the current search")

const goldenFile = "testdata/rewrite.golden"

func newView(name, pat string) *core.View {
	return &core.View{Name: name, Pattern: pattern.MustParse(pat), DerivableParentIDs: true}
}

// resultSignature captures the deterministic parts of a RewriteResult:
// everything except the timing fields.
func resultSignature(res *core.RewriteResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kept=%d/%d explored=%d rewritings=%d\n",
		res.ViewsKept, res.ViewsTotal, res.PlansExplored, len(res.Rewritings))
	for _, p := range res.Rewritings {
		b.WriteString(p.String() + "\n")
	}
	return b.String()
}

// goldenRow is one rewriting input: a query over a view set and summary,
// searched with opts.
type goldenRow struct {
	name  string
	s     *summary.Summary
	q     *pattern.Pattern
	views []*core.View
	opts  core.RewriteOptions
}

func (r goldenRow) run() (*core.RewriteResult, error) {
	return core.Rewrite(r.q, r.views, r.s, r.opts)
}

// smallCases are hand-sized summaries exercising each plan shape: ID
// joins, Figure 5's join without a pattern equivalent, unions, a wide
// view set and nested joins.
func smallCases() []goldenRow {
	cases := []struct {
		name, sum, query string
		views            []*core.View
	}{
		{"id-join", "a(b(c d))", "a(//b[id](/c[v] /d[v]))",
			[]*core.View{newView("vc", "a(//b[id](/c[v]))"), newView("vd", "a(//b[id](/d[v]))")}},
		{"figure5", "r(a(b c(b)) c(b a(b)))", "r(//*(//*(//b[id])))",
			[]*core.View{newView("p1", "r(//a(//b[id]))"), newView("p2", "r(//c(//b[id]))")}},
		{"union", "a(b c)", "a(/*[id])",
			[]*core.View{newView("vb", "a(/b[id])"), newView("vc", "a(/c[id])")}},
		{"many-views", "s(x(p q) y(p r) z(q r))", "s(//p[id](?/q))", []*core.View{
			newView("v1", "s(//p[id])"), newView("v2", "s(//q[id])"),
			newView("v3", "s(//r[id])"), newView("v4", "s(//x[id](/p[id]))"),
			newView("v5", "s(//y[id](/p[id]))"), newView("v6", "s(/*[id,l])"),
		}},
		{"nested", "a(b(c))", "a(/b[id](n/c[id,v]))",
			[]*core.View{newView("vb", "a(/b[id])"), newView("vcv", "a(//c[id,v])")}},
	}
	var rows []goldenRow
	for _, c := range cases {
		for _, budget := range []int{7, 800, 4000} {
			opts := core.DefaultRewriteOptions()
			opts.MaxExplored = budget
			rows = append(rows, goldenRow{
				name: fmt.Sprintf("%s/budget=%d", c.name, budget),
				s:    summary.MustParse(c.sum), q: pattern.MustParse(c.query), views: c.views, opts: opts,
			})
		}
	}
	return rows
}

// concurrentRow is the query TestConcurrentRewriteAndContained runs from
// many goroutines at once.
func concurrentRow() goldenRow {
	opts := core.DefaultRewriteOptions()
	opts.MaxExplored = 1500
	opts.MaxResults = 8
	return goldenRow{
		name: "concurrent",
		s:    summary.MustParse("site(regions(item(name mail location)) people(person(name)))"),
		views: []*core.View{
			newView("vi", "site(//item[id](/name[v]))"),
			newView("vm", "site(//item[id](?/mail[v]))"),
			newView("vp", "site(//person[id](/name[v]))"),
			newView("vn", "site(//name[id,v])"),
		},
		q:    pattern.MustParse("site(//item[id](/name[v] ?/mail[v]))"),
		opts: opts,
	}
}

// coldViews is the benchmark's catalog (bench/setup.go viewDefs).
func coldViews() []*core.View {
	return []*core.View{
		newView("VITEM", `site(//item[id](/name[v]))`),
		newView("VITEMLOC", `site(//item[id](/location[v]))`),
		newView("VPERSON", `site(//person[id](/name[v]))`),
		newView("VINCOME", `site(//person[id](?/profile(/income[v])))`),
		newView("VOPEN", `site(//open_auction[id](/initial[v]))`),
		newView("VBID", `site(//open_auction[id](n?/bidder[id](/increase[v])))`),
		newView("VCLOSED", `site(//closed_auction[id](/price[v]))`),
	}
}

// coldShapes are the benchmark's cold_plan query shapes
// (bench/workload.go coldTemplates) with their constant filled in: every
// cold request of the benchmark is one full search of one of these.
var coldShapes = []string{
	`site(//closed_auction[id](/price[v]{v>10}))`,
	`site(//person[id](/name[v]{v="x"}))`,
	`site(//item[id](/name[v]{v="x"}))`,
	`site(//person[id](/name[v]{v="x"} ?/profile(/income[v])))`,
	`site(//open_auction[id](/initial[v]{v>10} n?/bidder[id](/increase[v])))`,
}

// coldSummary is the summary of a small benchmark document: the summary's
// shape, not the document's size, drives the search, and scale 50 already
// has the benchmark's (scale 1000) paths.
func coldSummary() *summary.Summary { return summary.Build(datagen.XMark(50, 1)) }

// coldRows runs the cold shapes as the daemon does (-maxrewritings 1 and 2).
func coldRows() []goldenRow {
	s, views := coldSummary(), coldViews()
	var rows []goldenRow
	for i, q := range coldShapes {
		for _, max := range []int{1, 2} {
			opts := core.DefaultRewriteOptions()
			opts.MaxResults = max
			rows = append(rows, goldenRow{
				name: fmt.Sprintf("cold%d/max=%d", i+1, max), s: s, q: pattern.MustParse(q), views: views, opts: opts,
			})
		}
	}
	return rows
}

// fig15Rows are representative XMark queries over the Figure 15 view set.
func fig15Rows() []goldenRow {
	s := experiments.XMarkSummary()
	views := experiments.Fig15Views(s, 5, 77)
	opts := core.DefaultRewriteOptions()
	opts.MaxScansPerPlan = 3
	opts.MaxResults = 4
	opts.MaxExplored = 1000
	opts.MaxNavDepth = 2
	var rows []goldenRow
	for _, qi := range []int{1, 5} {
		rows = append(rows, goldenRow{
			name: fmt.Sprintf("fig15/Q%d", qi), s: s, q: xmark.Query(qi), views: views, opts: opts,
		})
	}
	return rows
}

// readGolden splits the golden file into its "== name" sections.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	sections := map[string]string{}
	var name string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if strings.HasPrefix(line, "== ") {
			name = strings.TrimSpace(strings.TrimPrefix(line, "== "))
			sections[name] = ""
			continue
		}
		sections[name] += line
	}
	return sections
}

func TestRewriteGolden(t *testing.T) {
	rows := allGoldenRows()
	if *update {
		// Every row, outside subtests: a -run filter must not drop rows
		// from the rewritten file.
		var out strings.Builder
		for _, row := range rows {
			res, err := row.run()
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			fmt.Fprintf(&out, "== %s\n%s", row.name, resultSignature(res))
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			res, err := row.run()
			if err != nil {
				t.Fatal(err)
			}
			if got, w := resultSignature(res), want[row.name]; got != w {
				t.Errorf("rewriting diverged from %s:\ngot:\n%s\nwant:\n%s", goldenFile, got, w)
			}
		})
	}
}

// TestConcurrentRewriteAndContained is the -race regression test: 8
// goroutines share one summary and one subsume cache and run rewriting
// searches and containment decisions concurrently; every goroutine must
// reproduce the golden result exactly.
func TestConcurrentRewriteAndContained(t *testing.T) {
	row := concurrentRow()
	p1 := pattern.MustParse("site(//item[id](/name[v]))")
	p2 := pattern.MustParse("site(//*[id](/name[v]))")

	seq, err := row.run()
	if err != nil {
		t.Fatal(err)
	}
	wantSig := resultSignature(seq)
	wantContained, err := core.Contained(p1, p2, row.s)
	if err != nil {
		t.Fatal(err)
	}

	shared := core.NewSubsumeCache(0)
	row.opts.Subsume = shared
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				res, err := row.run()
				if err != nil {
					errs[g] = err
					return
				}
				if got := resultSignature(res); got != wantSig {
					errs[g] = fmt.Errorf("goroutine %d: rewrite diverged:\n%s\nwant:\n%s", g, got, wantSig)
					return
				}
				copts := core.DefaultContainOptions()
				copts.Subsume = shared
				ok, _, err := core.ContainedWith(p1, []*pattern.Pattern{p2}, row.s, copts)
				if err != nil {
					errs[g] = err
					return
				}
				if ok != wantContained {
					errs[g] = fmt.Errorf("goroutine %d: containment = %v, want %v", g, ok, wantContained)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkRewriteCold measures one cold search per benchmark cold_plan
// shape at the daemon's -maxrewritings 2, with a fresh subsume cache per
// search: core.rewrite_ms and core.rewrite_alloc_mb, without the HTTP
// stack.
func BenchmarkRewriteCold(b *testing.B) {
	s, views := coldSummary(), coldViews()
	opts := core.DefaultRewriteOptions()
	opts.MaxResults = 2
	for i, text := range coldShapes {
		q := pattern.MustParse(text)
		b.Run(fmt.Sprintf("cold%d", i+1), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := core.Rewrite(q, views, s, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRewriteExhausted: a search the budget cut off says so, unless it
// already found MaxResults rewritings; a search that ran out of plans
// before the budget did not give up. The rows are the golden's.
func TestRewriteExhausted(t *testing.T) {
	want := map[string]bool{
		"id-join/budget=7":    true,  // no rewriting yet: gave up
		"id-join/budget=4000": true,  // 18 of 64 rewritings at the budget
		"figure5/budget=800":  false, // the whole space took 8 merges
		"cold1/max=1":         false, // stopped at its one rewriting
	}
	for _, row := range allGoldenRows() {
		exhausted, ok := want[row.name]
		if !ok {
			continue
		}
		res, err := row.run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Exhausted != exhausted {
			t.Errorf("%s: Exhausted = %v after %d merges and %d rewritings, want %v",
				row.name, res.Exhausted, res.PlansExplored, len(res.Rewritings), exhausted)
		}
		delete(want, row.name)
	}
	if len(want) > 0 {
		t.Fatalf("rows not found: %v", want)
	}
}
