package view

import (
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/xmltree"
)

// TestStoreRelationConcurrent is the regression test for the Store data
// race: 8 goroutines hammer Relation on views that are NOT pre-materialized
// (a lazily-added base view and a prepared view), so every goroutine races
// through the materialize-on-demand path. Run with -race.
func TestStoreRelationConcurrent(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b(c "1") b(c "2") b(c "3"))`)
	st := NewStore(doc, nil) // nothing pre-materialized

	lazy := &core.View{Name: "lazy", Pattern: pattern.MustParse(`a(//c[id,v])`)}
	prepared := &core.View{
		Name:          "lazy",
		Pattern:       pattern.MustParse(`a(/b[id](/c[id,v]))`),
		Stored:        pattern.MustParse(`a(/b(/c[id,v]))`),
		StoredSlotMap: []int{1},
		VirtualSlots:  map[int]core.VirtualID{0: {FromSlot: 1, Up: 1}},
	}

	const goroutines = 8
	var wg sync.WaitGroup
	rels := make([]*nrelPair, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &nrelPair{}
			for i := 0; i < 50; i++ {
				p.base = st.Relation(lazy)
				p.prepared = st.Relation(prepared)
				if !st.Has("lazy") {
					t.Error("store lost the lazy extent")
					return
				}
			}
			rels[g] = p
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if rels[g] == nil || rels[g].base != rels[0].base || rels[g].prepared != rels[0].prepared {
			t.Fatal("goroutines observed different cached extents")
		}
	}
	if n := st.Relation(lazy).Len(); n != 3 {
		t.Fatalf("lazy extent rows = %d, want 3", n)
	}
}

type nrelPair struct {
	base, prepared any
}

// TestStorePutHasConcurrent covers the writer-side API under concurrency.
func TestStorePutHasConcurrent(t *testing.T) {
	doc := xmltree.MustParseParen(`a(b "1")`)
	st := NewStore(doc, nil)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[id,v])`)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Put("w", st.relation(v))
				_ = st.Has("w")
			}
		}()
	}
	wg.Wait()
	if !st.Has("w") {
		t.Fatal("Put lost")
	}
}
