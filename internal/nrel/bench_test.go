package nrel_test

import (
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/datagen"
	"xmlviews/internal/nrel"
	"xmlviews/internal/pattern"
	"xmlviews/internal/view"
)

var sortedSink *nrel.Relation

// BenchmarkSorted measures the /query order on the shape of the benchmark's
// item scan: site(//item[id](/name[v])) over XMark(1000), 6000 (id, v) rows.
func BenchmarkSorted(b *testing.B) {
	v := &core.View{Name: "items", Pattern: pattern.MustParse(`site(//item[id](/name[v]))`)}
	rel := view.MaterializeFlat(v, datagen.XMark(1000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortedSink = rel.Sorted()
	}
}
