package view

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xmlviews/internal/core"
	"xmlviews/internal/pattern"
	"xmlviews/internal/xmltree"
)

func mvccStore(t *testing.T) (*Store, *core.View, *xmltree.Document) {
	t.Helper()
	doc := xmltree.MustParseParen(`a(b "1")`)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[v])`), DerivableParentIDs: true}
	return NewStore(doc, []*core.View{v}), v, doc
}

func applyOne(t *testing.T, st *Store, doc *xmltree.Document, val string) {
	t.Helper()
	if _, err := st.ApplyUpdates(context.Background(), []xmltree.Update{
		{Kind: xmltree.UpdateInsert, Parent: doc.Root.ID, Subtree: xmltree.MustParseParen(`b "` + val + `"`)},
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMVCCPinRelease(t *testing.T) {
	st, _, doc := mvccStore(t)
	if got := st.Versions(); got != 1 {
		t.Fatalf("fresh store tracks %d versions, want 1", got)
	}
	snap := st.Snapshot()
	applyOne(t, st, doc, "2")
	// Applying the first batch installs a sorted same-epoch version and
	// then the new epoch; the snapshot pins the original.
	if got := st.Versions(); got != 2 {
		t.Fatalf("after update with pinned snapshot: %d versions, want 2", got)
	}
	snap.Release()
	if got := st.Versions(); got != 1 {
		t.Fatalf("after release: %d versions, want 1", got)
	}
	snap.Release() // idempotent
	if got := st.Versions(); got != 1 {
		t.Fatalf("double release changed version count to %d", got)
	}
}

func TestMVCCUnpinnedVersionsNotRetained(t *testing.T) {
	st, _, doc := mvccStore(t)
	for i := 0; i < 5; i++ {
		applyOne(t, st, doc, fmt.Sprintf("x%d", i))
	}
	if got := st.Versions(); got != 1 {
		t.Fatalf("no snapshots pinned, yet %d versions retained", got)
	}
	if st.Epoch() != 5 {
		t.Fatalf("epoch %d, want 5", st.Epoch())
	}
}

func TestMVCCRetentionBound(t *testing.T) {
	st, v, doc := mvccStore(t)
	st.SetMaxVersions(3)
	var snaps []*Snapshot
	for i := 0; i < 6; i++ {
		snaps = append(snaps, st.Snapshot())
		applyOne(t, st, doc, fmt.Sprintf("y%d", i))
	}
	if got := st.Versions(); got > 3 {
		t.Fatalf("retention bound exceeded: %d versions, max 3", got)
	}
	// Force-released snapshots stay readable at their pinned epoch.
	for i, snap := range snaps {
		if got := snap.Epoch(); got != int64(i) {
			t.Fatalf("snapshot %d reports epoch %d", i, got)
		}
		if got := snap.Relation(v).Len(); got != i+1 {
			t.Fatalf("snapshot %d sees %d rows, want %d", i, got, i+1)
		}
	}
	// Releasing everything (including force-released pins) leaves the
	// live version only and never panics or underflows.
	for _, snap := range snaps {
		snap.Release()
		snap.Release()
	}
	if got := st.Versions(); got != 1 {
		t.Fatalf("after releasing all snapshots: %d versions", got)
	}
}

func TestMVCCSnapshotOfSnapshot(t *testing.T) {
	st, v, doc := mvccStore(t)
	s1 := st.Snapshot()
	s2 := s1.Snapshot()
	s1.Release()
	applyOne(t, st, doc, "2")
	if got := s2.Relation(v).Len(); got != 1 {
		t.Fatalf("re-pinned snapshot sees %d rows, want 1", got)
	}
	if got := st.Versions(); got != 2 {
		t.Fatalf("%d versions while s2 pinned, want 2", got)
	}
	s2.Release()
	if got := st.Versions(); got != 1 {
		t.Fatalf("%d versions after final release, want 1", got)
	}
}

// TestMVCCConcurrentReadersDontBlockCommit pins snapshots from reader
// goroutines while a writer applies batches; every reader must observe a
// row count consistent with its snapshot's epoch (epoch e => e+1 rows),
// and the writer must never be blocked into failure by readers.
func TestMVCCConcurrentReadersDontBlockCommit(t *testing.T) {
	st, v, doc := mvccStore(t)
	st.SetMaxVersions(4)
	const batches = 50
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := st.Snapshot()
				e := snap.Epoch()
				if got := snap.Relation(v).Len(); int64(got) != e+1 {
					t.Errorf("snapshot at epoch %d sees %d rows", e, got)
					snap.Release()
					return
				}
				snap.Release()
			}
		}()
	}
	for i := 0; i < batches; i++ {
		applyOne(t, st, doc, fmt.Sprintf("c%d", i))
		if got := st.Versions(); got > 4 {
			t.Fatalf("version bound exceeded under concurrency: %d", got)
		}
	}
	close(done)
	wg.Wait()
	if st.Epoch() != batches {
		t.Fatalf("final epoch %d, want %d", st.Epoch(), batches)
	}
}

// TestSnapshotOutlivesCommitsAndCompaction: a snapshot taken at epoch E
// keeps reading E's rows — through the persisted write path, not just the
// in-memory one — after two further commits and a compaction of the
// directory underneath, and releasing it (twice) returns the store to one
// tracked version.
func TestSnapshotOutlivesCommitsAndCompaction(t *testing.T) {
	dir := t.TempDir()
	doc := xmltree.MustParseParen(`a(b "1")`)
	v := &core.View{Name: "v", Pattern: pattern.MustParse(`a(/b[v])`), DerivableParentIDs: true}
	if _, err := BuildStore(dir, doc, []*core.View{v}); err != nil {
		t.Fatal(err)
	}
	cat, st, err := OpenUpdatableStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(val string) {
		t.Helper()
		ups := []xmltree.Update{{Kind: xmltree.UpdateInsert, Parent: st.Document().Root.ID,
			Subtree: xmltree.MustParseParen(`b "` + val + `"`)}}
		if _, err := ApplyAndPersistStaged(context.Background(), dir, cat, st, ups, nil); err != nil {
			t.Fatal(err)
		}
	}
	commit("2")
	snap := st.Snapshot()
	want := snap.Relation(v).Sorted().String()
	commit("3")
	commit("4")
	if res, err := CompactCatalog(dir, cat); err != nil || res.Folded != 3 {
		t.Fatalf("compaction: %+v, %v", res, err)
	}
	if snap.Epoch() != 1 || st.Epoch() != 3 {
		t.Fatalf("epochs: snapshot %d, store %d; want 1, 3", snap.Epoch(), st.Epoch())
	}
	if got := snap.Relation(v).Sorted().String(); got != want || snap.Relation(v).Len() != 2 {
		t.Fatalf("snapshot at epoch 1 now reads\n%s\nwant\n%s", got, want)
	}
	if got := st.Relation(v).Len(); got != 4 {
		t.Fatalf("live store has %d rows, want 4", got)
	}
	snap.Release()
	snap.Release()
	if got := st.Versions(); got != 1 {
		t.Fatalf("%d versions after release, want 1", got)
	}
}
