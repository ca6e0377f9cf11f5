package view_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xmlviews/internal/algebra"
	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/nodeid"
	"xmlviews/internal/pattern"
	"xmlviews/internal/store"
	"xmlviews/internal/summary"
	"xmlviews/internal/view"
	"xmlviews/internal/xmltree"
)

// The differential oracle: apply random update batches to a store and
// assert the maintained extents are tuple-identical to a from-scratch
// re-materialization of the updated document, across the four stored view
// shapes (identity, join pair, virtual-ID/prepared, content) plus an
// optional-edge view, and that rewritten queries answer identically on the
// maintained store and on a freshly built one.

func oracleViews() []*core.View {
	return []*core.View{
		mkView("vname", `site(//item[id](/name[v]))`),              // identity
		mkView("vloc", `site(//item[id](/location[v]))`),           // join half 1
		mkView("vquant", `site(//item[id](/quantity[v]))`),         // join half 2
		mkView("vvirt", `site(//item(/name[id,v]))`),               // virtual-ID source
		mkView("vcont", `site(//mail[id,c])`),                      // content, many summary paths
		mkView("vpcont", `site(/people(/person[id,c]))`),           // content, single path
		mkView("vopt", `site(//person[id](?/phone[v] ?/name[v]))`), // optional edges
	}
}

// oracleQueries pairs each query with the view subset that must answer it,
// exercising identity scans, ID joins, virtual-ID derivation and content
// navigation. (Content navigation is probed through the single-path
// vpcont: //mail has one summary node per XMark region, which blows up
// even the first-plan rewriting search; its extent maintenance is still
// covered by the extent-level checks on vcont.)
func oracleQueries() []struct {
	q     string
	views []string
} {
	return []struct {
		q     string
		views []string
	}{
		{`site(//item[id](/name[v]))`, []string{"vname"}},
		{`site(//item[id](/location[v] /quantity[v]))`, []string{"vloc", "vquant"}},
		{`site(//item[id](/name[v]))`, []string{"vvirt"}},             // forces the prepared/virtual-ID path
		{`site(/people(/person[id](/phone[v])))`, []string{"vpcont"}}, // forces content navigation
		{`site(//person[id](?/phone[v]))`, []string{"vopt"}},
	}
}

// updateGen builds random batches whose updates never step on a subtree an
// earlier update of the same batch deleted. In conforming mode, inserted
// subtrees and renames follow the XMark vocabulary at plausible positions,
// keeping the mutated summary close to the schema so that the rewriting
// search (whose canonical models grow with summary bushiness) stays cheap
// enough for end-to-end query checks; wild mode inserts any label anywhere
// and is used for the extent-level oracle, which needs no rewriting.
type updateGen struct {
	r          *rand.Rand
	serial     int
	conforming bool
}

var wildLabels = []string{"item", "name", "mail", "person", "phone", "location", "misc"}

var containerLabels = map[string]bool{
	"regions": true, "africa": true, "asia": true, "australia": true,
	"europe": true, "namerica": true, "samerica": true, "people": true,
}

func (g *updateGen) wildSubtree() *xmltree.Document {
	g.serial++
	d := xmltree.NewDocument(wildLabels[g.r.Intn(len(wildLabels))])
	d.Root.Value = fmt.Sprintf("g%d", g.serial)
	n := d.Root
	for depth := 0; depth < g.r.Intn(3); depth++ {
		n = n.AddChild(wildLabels[g.r.Intn(len(wildLabels))], fmt.Sprintf("g%d.%d", g.serial, depth))
		if g.r.Intn(2) == 0 {
			n.AddChild("from", "x@example.com")
		}
	}
	return d
}

// conformingInsert picks an XMark-shaped subtree and a matching parent
// label, or returns ok=false for parents it has no recipe for.
func (g *updateGen) conformingInsert(parentLabel string) (*xmltree.Document, bool) {
	g.serial++
	switch parentLabel {
	case "africa", "asia", "australia", "europe", "namerica", "samerica":
		d := xmltree.NewDocument("item")
		d.Root.AddChild("name", fmt.Sprintf("gadget %d", g.serial))
		d.Root.AddChild("location", "Freedonia")
		d.Root.AddChild("quantity", fmt.Sprintf("%d", 1+g.serial%5))
		return d, true
	case "mailbox":
		d := xmltree.NewDocument("mail")
		d.Root.AddChild("from", fmt.Sprintf("g%d@example.com", g.serial))
		d.Root.AddChild("to", "x@example.org")
		return d, true
	case "people":
		d := xmltree.NewDocument("person")
		d.Root.AddChild("name", fmt.Sprintf("Person %d", g.serial))
		if g.serial%2 == 0 {
			d.Root.AddChild("phone", fmt.Sprintf("+1 555 01%02d", g.serial%100))
		}
		return d, true
	case "item":
		d := xmltree.NewDocument("mailbox")
		m := d.Root.AddChild("mail", "")
		m.AddChild("from", fmt.Sprintf("g%d@example.com", g.serial))
		return d, true
	}
	return nil, false
}

func (g *updateGen) batch(doc *xmltree.Document) []xmltree.Update {
	nodes := doc.Nodes()
	var deleted []nodeid.ID
	gone := func(id nodeid.ID) bool {
		for _, d := range deleted {
			if d.Equal(id) || d.IsAncestorOf(id) {
				return true
			}
		}
		return false
	}
	size := 1 + g.r.Intn(3)
	var ups []xmltree.Update
	for attempts := 0; len(ups) < size && attempts < 200; attempts++ {
		n := nodes[g.r.Intn(len(nodes))]
		if gone(n.ID) {
			continue
		}
		switch g.r.Intn(5) {
		case 0, 1: // insert, biased: growth keeps documents interesting
			var sub *xmltree.Document
			if g.conforming {
				var ok bool
				if sub, ok = g.conformingInsert(n.Label); !ok {
					continue
				}
			} else {
				sub = g.wildSubtree()
			}
			var before nodeid.ID
			if len(n.Children) > 0 && g.r.Intn(2) == 0 {
				c := n.Children[g.r.Intn(len(n.Children))]
				if gone(c.ID) {
					continue
				}
				before = c.ID
			}
			ups = append(ups, xmltree.Update{Kind: xmltree.UpdateInsert, Parent: n.ID, Before: before, Subtree: sub})
		case 2:
			if n.Parent == nil {
				continue
			}
			if g.conforming && containerLabels[n.Label] {
				// Keep the document's backbone so the checked queries stay
				// satisfiable; items, persons, mails etc. remain fair game.
				continue
			}
			deleted = append(deleted, n.ID)
			ups = append(ups, xmltree.Update{Kind: xmltree.UpdateDelete, Target: n.ID})
		case 3:
			if n.Parent == nil {
				continue // keep the root label stable so views stay satisfiable
			}
			label := wildLabels[g.r.Intn(len(wildLabels))]
			if g.conforming {
				// Rename only among labels of the same stratum, so no new
				// summary paths appear above existing substructure.
				switch n.Label {
				case "location":
					label = "quantity"
				case "quantity":
					label = "location"
				case "phone", "name":
					label = "misc" + n.Label
				default:
					continue
				}
			}
			ups = append(ups, xmltree.Update{Kind: xmltree.UpdateRename, Target: n.ID, Label: label})
		default:
			g.serial++
			ups = append(ups, xmltree.Update{Kind: xmltree.UpdateSetValue, Target: n.ID, Value: fmt.Sprintf("w%d", g.serial)})
		}
	}
	return ups
}

func checkExtentsMatchRebuild(t *testing.T, st *view.Store, views []*core.View, doc *xmltree.Document, round int) {
	t.Helper()
	for _, v := range views {
		want := view.MaterializeFlat(v, doc)
		got := st.Relation(v).Clone()
		if !got.EqualAsSet(want) {
			t.Fatalf("round %d: maintained extent of %s diverges from rebuild\nmaintained:\n%s\nrebuild:\n%s",
				round, v.Name, got.Sorted(), want.Sorted())
		}
	}
}

func checkQueriesMatchRebuild(t *testing.T, st *view.Store, views []*core.View, doc *xmltree.Document, sum *summary.Summary, round int) {
	t.Helper()
	byName := map[string]*core.View{}
	for _, v := range views {
		byName[v.Name] = v
	}
	fresh := view.NewStore(doc, views)
	for _, qc := range oracleQueries() {
		var qviews []*core.View
		for _, name := range qc.views {
			qviews = append(qviews, byName[name])
		}
		q := pattern.MustParse(qc.q)
		// First plan only, like the serving daemon: the exhaustive search
		// over //-queries is exponential in summary bushiness.
		opts := core.DefaultRewriteOptions()
		opts.FirstOnly = true
		res, err := core.Rewrite(q, qviews, sum, opts)
		if errors.Is(err, core.ErrUnsatisfiable) {
			continue // both stores would answer with nothing
		}
		if err != nil {
			t.Fatalf("round %d: Rewrite(%s): %v", round, qc.q, err)
		}
		if len(res.Rewritings) == 0 {
			t.Fatalf("round %d: no rewriting for %s over %v", round, qc.q, qc.views)
		}
		for _, plan := range res.Rewritings {
			got, err := algebra.Execute(plan, st)
			if err != nil {
				t.Fatalf("round %d: Execute(maintained, %s): %v", round, plan, err)
			}
			want, err := algebra.Execute(plan, fresh)
			if err != nil {
				t.Fatalf("round %d: Execute(fresh, %s): %v", round, plan, err)
			}
			if gs, ws := got.Rel.Sorted().String(), want.Rel.Sorted().String(); gs != ws {
				t.Fatalf("round %d: plan %s answers differently on maintained store\nmaintained:\n%s\nfresh:\n%s",
					round, plan, gs, ws)
			}
		}
	}
}

// TestMaintenanceOracleMemory drives ≥100 random batches through
// Store.ApplyUpdates across several documents and seeds, with the wild
// generator (arbitrary labels anywhere), asserting extent-level parity
// with a from-scratch rebuild after every batch.
func TestMaintenanceOracleMemory(t *testing.T) {
	const seeds, batches = 6, 18 // 108 batches
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(1000 + seed))
			doc := datagen.XMark(1, seed)
			views := oracleViews()
			st := view.NewStore(doc, views)
			gen := &updateGen{r: r}
			for round := 0; round < batches; round++ {
				ups := gen.batch(doc)
				batch, err := st.ApplyUpdates(context.Background(), ups)
				if err != nil {
					t.Fatalf("round %d: ApplyUpdates: %v", round, err)
				}
				if st.Epoch() != int64(round+1) {
					t.Fatalf("round %d: epoch %d", round, st.Epoch())
				}
				// The incrementally maintained summary must render
				// byte-identically to a from-scratch build, statistics
				// included.
				if got, want := batch.Summary.StatsString(), summary.Build(doc).StatsString(); got != want {
					t.Fatalf("round %d: maintained summary diverged\nmaintained: %s\nrebuild:    %s", round, got, want)
				}
				checkExtentsMatchRebuild(t, st, views, doc, round)
			}
		})
	}
}

// TestMaintenanceOracleQueries drives schema-conforming batches and checks
// end-to-end query parity (rewrite + execute on the maintained store vs a
// fresh one) after every batch, covering the identity, ID-join,
// virtual-ID/prepared and content-navigation plan shapes.
func TestMaintenanceOracleQueries(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	doc := datagen.XMark(1, 3)
	views := oracleViews()
	st := view.NewStore(doc, views)
	gen := &updateGen{r: r, conforming: true}
	for round := 0; round < 8; round++ {
		ups := gen.batch(doc)
		batch, err := st.ApplyUpdates(context.Background(), ups)
		if err != nil {
			t.Fatalf("round %d: ApplyUpdates: %v", round, err)
		}
		if got, want := batch.Summary.StatsString(), summary.Build(doc).StatsString(); got != want {
			t.Fatalf("round %d: maintained summary diverged\nmaintained: %s\nrebuild:    %s", round, got, want)
		}
		checkExtentsMatchRebuild(t, st, views, doc, round)
		checkQueriesMatchRebuild(t, st, views, doc, batch.Summary, round)
	}
}

// TestMaintenanceOracleDisk drives batches through UpdateStore (open →
// maintain → log the batch) and checks that reopening — before and after
// compaction — yields extents and query results identical to a
// from-scratch rebuild of the updated document.
func TestMaintenanceOracleDisk(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(77))
	doc := datagen.XMark(1, 7)
	views := oracleViews()
	if _, err := view.BuildStore(dir, doc, views); err != nil {
		t.Fatal(err)
	}
	gen := &updateGen{r: r, conforming: true}
	const batches = 12
	for round := 0; round < batches; round++ {
		// The persisted document is authoritative; mirror it locally so the
		// generator picks valid targets.
		_, st, err := view.OpenUpdatableStore(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ups := gen.batch(st.Document())
		if _, err := view.UpdateStore(dir, ups); err != nil {
			t.Fatalf("round %d: UpdateStore: %v", round, err)
		}
	}

	// Reopen: extents must equal a rebuild of the persisted document.
	cat, st, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Epoch != batches {
		t.Fatalf("epoch %d, want %d", cat.Epoch, batches)
	}
	latest := st.Document()
	checkExtentsMatchRebuild(t, st, views, latest, -1)
	// The persisted summary text (written from the maintained summary)
	// must equal a from-scratch build of the persisted document.
	if want := summary.Build(latest).StatsString(); cat.Summary != want {
		t.Fatalf("persisted summary diverged\ncatalog: %s\nrebuild: %s", cat.Summary, want)
	}
	sum, err := summary.Parse(cat.Summary)
	if err != nil {
		t.Fatal(err)
	}
	checkQueriesMatchRebuild(t, st, views, latest, sum, -1)
	preCompact := map[string]string{}
	for _, v := range views {
		preCompact[v.Name] = st.Relation(v).Clone().Sorted().String()
	}

	// Compact (the offline checkpoint) and reopen: identical answers from
	// fresh base segments with nothing left to replay.
	res, err := view.CompactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.FilesWritten < 2 || res.FilesRemoved < 2 || res.BytesReclaimed <= 0 {
		t.Fatalf("compaction did not replace the changed files: %+v", res)
	}
	cat2, st2, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cat2.Epoch != batches || cat2.DocEpoch != batches || store.UpdateLogSize(dir) != 0 {
		t.Fatalf("compaction left epoch %d, doc_epoch %d, %d log byte(s)", cat2.Epoch, cat2.DocEpoch, store.UpdateLogSize(dir))
	}
	for _, v := range views {
		if got := st2.Relation(v).Clone().Sorted().String(); got != preCompact[v.Name] {
			t.Fatalf("compacted extent of %s differs:\n%s\nwant:\n%s", v.Name, got, preCompact[v.Name])
		}
	}
	checkQueriesMatchRebuild(t, st2, views, latest, sum, -2)
}

// docFingerprint renders a document node for node — IDs, labels, values —
// so two documents compare structurally (PathIDs are derived state and
// excluded).
func docFingerprint(doc *xmltree.Document) string {
	var b strings.Builder
	doc.Root.Walk(func(n *xmltree.Node) bool {
		fmt.Fprintf(&b, "%s %s %q\n", n.ID, n.Label, n.Value)
		return true
	})
	return b.String()
}

// TestMaintenanceOracleReplay is the differential for the update log: a
// store kept open across wild batches (arbitrary labels anywhere) commits
// each through ApplyAndPersistStaged, and after every epoch a fresh
// read-only open of the directory — base segments plus log replay — must
// equal the live store row for row and a rebuild over the live document as
// a set, and the writer's open must replay a document structurally equal
// to the live one. Checkpoints fall mid-sequence, so replay starts from a
// non-zero doc_epoch over rewritten base segments too.
func TestMaintenanceOracleReplay(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(1907))
	views := oracleViews()
	if _, err := view.BuildStore(dir, datagen.XMark(1, 11), views); err != nil {
		t.Fatal(err)
	}
	cat, st, err := view.OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen := &updateGen{r: r}
	const batches = 24
	for round := 1; round <= batches; round++ {
		ups := gen.batch(st.Document())
		if _, err := view.ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		switch round {
		case 7, 13, 19:
			if _, err := view.Checkpoint(dir, cat, st); err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
			if cat.DocEpoch != int64(round) || store.UpdateLogSize(dir) != 0 {
				t.Fatalf("round %d: checkpoint left doc_epoch %d and %d log byte(s)", round, cat.DocEpoch, store.UpdateLogSize(dir))
			}
		}
		fresh, err := view.OpenStore(dir, views)
		if err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		if fresh.Epoch() != int64(round) {
			t.Fatalf("round %d: reopened at epoch %d", round, fresh.Epoch())
		}
		for _, v := range views {
			if got, live := fresh.Relation(v).Clone().String(), st.Relation(v).Clone().String(); got != live {
				t.Fatalf("round %d: reopened extent of %s differs from the live one row for row\nreopened:\n%s\nlive:\n%s", round, v.Name, got, live)
			}
		}
		checkExtentsMatchRebuild(t, fresh, views, st.Document(), round)
		cat2, st2, err := view.OpenUpdatableStore(dir)
		if err != nil {
			t.Fatalf("round %d: writer reopen: %v", round, err)
		}
		if cat2.Epoch != int64(round) || cat2.DocEpoch != cat.DocEpoch || cat2.DocSegment != cat.DocSegment {
			t.Fatalf("round %d: reopened at epoch %d, doc %s@%d; live catalog has %d, %s@%d",
				round, cat2.Epoch, cat2.DocSegment, cat2.DocEpoch, cat.Epoch, cat.DocSegment, cat.DocEpoch)
		}
		if got, want := docFingerprint(st2.Document()), docFingerprint(st.Document()); got != want {
			t.Fatalf("round %d: replayed document differs from the live one\nreplayed:\n%s\nlive:\n%s", round, got, want)
		}
	}
}
