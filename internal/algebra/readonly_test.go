package algebra

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snippetHeader opens every snippet: a file of this package, so a snippet
// can name the executor's internals as well as the packages it imports.
const snippetHeader = `package algebra

import (
	"sort"

	"xmlviews/internal/core"
	"xmlviews/internal/nrel"
	"xmlviews/internal/store"
	"xmlviews/internal/view"
)

var (
	_ = sort.Ints
	_ = store.BlockRows
	_ nrel.Extent
	_ *view.Store
	_ *core.View
)
`

// TestSharedExtentWritesDoNotCompile pins the read-only extent boundary by
// type: each bug shape that once wrote into, or could write into, storage
// every concurrent plan shares must be a type error, and its fixed form —
// clone, then write; or build fresh — must type-check. Snippets are checked
// as one more file of this package against the real sources, with go/types
// and the source importer as xvlint's loader does.
func TestSharedExtentWritesDoNotCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the package and its dependencies from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var pkgFiles []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgFiles = append(pkgFiles, f)
	}
	// check type-checks the package plus the snippet and returns the
	// errors, each of which must lie in the snippet.
	check := func(t *testing.T, name, body string) []string {
		t.Helper()
		f, err := parser.ParseFile(fset, name+".go", snippetHeader+body, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var errs []string
		conf := types.Config{Importer: imp, Error: func(err error) {
			te := err.(types.Error)
			if pos := fset.Position(te.Pos); pos.Filename != name+".go" {
				t.Fatalf("%s: error outside the snippet: %v", name, err)
			}
			errs = append(errs, te.Msg)
		}}
		conf.Check("xmlviews/internal/algebra", fset, append(append([]*ast.File(nil), pkgFiles...), f), nil)
		return errs
	}

	for _, c := range []struct {
		name, bug, want, fixed string
	}{{
		// The fillVirtualIDs shape: deriving ID columns by writing into
		// the rows the store hands out.
		name: "store_row_write",
		bug: `func _(st *view.Store, v *core.View) {
	rel := st.Relation(v)
	for i, row := range rel.Rows {
		rel.Rows[i] = append(row, nrel.Null())
	}
}`,
		want: "Rows",
		fixed: `func _(st *view.Store, v *core.View) {
	rel := st.Relation(v).Clone()
	for i, row := range rel.Rows {
		rel.Rows[i] = append(row, nrel.Null())
	}
}`,
	}, {
		name: "snapshot_row_write",
		bug: `func _(snap *view.Snapshot, v *core.View) {
	snap.Relation(v).Rows[0][0] = nrel.Null()
}`,
		want: "Rows",
		fixed: `func _(snap *view.Snapshot, v *core.View) {
	snap.Relation(v).Clone().Rows[0][0] = nrel.Null()
}`,
	}, {
		// The union shape: appending every part's rows to the first
		// part's relation, which a bare scan takes from the store.
		name: "scan_append",
		bug: `func _(ex *executor, v *core.View) error {
	first, err := ex.scan(v)
	if err != nil {
		return err
	}
	first.rel.Rows = append(first.rel.Rows, first.rel.Rows...)
	return nil
}`,
		want: "Rows",
		fixed: `func _(ex *executor, v *core.View) error {
	first, err := ex.scan(v)
	if err != nil {
		return err
	}
	out := nrel.NewRelation(first.rel.Cols()...)
	for i := 0; i < first.rel.Len(); i++ {
		first.rel.AppendRow(out, i)
	}
	out.Rows = append(out.Rows, out.Rows...)
	return nil
}`,
	}, {
		name: "extent_sort",
		bug: `func _(st *view.Store, v *core.View) {
	rows := st.Relation(v).Rows
	sort.SliceStable(rows, func(i, j int) bool { return false })
}`,
		want: "Rows",
		fixed: `func _(st *view.Store, v *core.View) {
	rows := st.Relation(v).Clone().Rows
	sort.SliceStable(rows, func(i, j int) bool { return false })
}`,
	}, {
		name: "blocks_codes_write",
		bug: `func _(st *view.Store, v *core.View) {
	st.Blocks(v).Column(0).Codes[0] = -1
}`,
		want: "Codes",
		fixed: `func _(st *view.Store, v *core.View) {
	b := st.Blocks(v)
	codes := make([]int32, b.Extent().Len())
	for i := range codes {
		codes[i] = b.Column(0).RowCode(i)
	}
	codes[0] = -1
}`,
	}, {
		name: "blocks_zones_write",
		bug: `func _(st *view.Store, v *core.View) {
	st.Blocks(v).Column(0).Zones[0] = store.Zone{}
}`,
		want: "Zones",
		fixed: `func _(st *view.Store, v *core.View) *store.Blocks {
	return store.BlocksFromRelation(st.Relation(v).Clone(), nil)
}`,
	}, {
		name: "zone_codes_write",
		bug: `func _(st *view.Store, v *core.View) {
	st.Blocks(v).Column(0).Zone(0).Codes[0] = 0
}`,
		want: "Codes",
		fixed: `func _(st *view.Store, v *core.View) bool {
	return st.Blocks(v).Column(0).Zone(0).HasCode(0)
}`,
	}} {
		t.Run(c.name, func(t *testing.T) {
			errs := check(t, c.name, c.bug)
			if len(errs) == 0 {
				t.Fatalf("the bug shape type-checks:\n%s", c.bug)
			}
			for _, msg := range errs {
				if !strings.Contains(msg, c.want) {
					t.Errorf("unexpected type error %q, want one about %s", msg, c.want)
				}
			}
			if errs := check(t, c.name+"_fixed", c.fixed); len(errs) > 0 {
				t.Fatalf("the fixed form does not type-check: %v\n%s", errs, c.fixed)
			}
		})
	}
}
