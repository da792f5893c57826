package core

import (
	"errors"
	"fmt"
	"testing"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// separatorFixture bulk-loads a tree with the given options over a
// relation of duplicated keys sized so that key runs straddle leaf
// boundaries: each key occupies 1.25 data pages, so most leaf-flush
// boundaries fall mid-run and the separator key of a right leaf trails
// duplicates in the left leaf — the exact shape the Delete routing bug
// missed.
func separatorFixture(t *testing.T, opts Options) (*Tree, uint64, device.PageID, device.PageID) {
	t.Helper()
	const reps = 80 // 1.25 pages per key at 64 tuples/page
	var keys []uint64
	for k := uint64(0); k < 2000; k++ {
		for r := 0; r < reps; r++ {
			keys = append(keys, k)
		}
	}
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatal("fixture needs internal levels")
	}
	rootBuf, err := tr.Store().ReadPage(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	root, err := branch.Decode(rootBuf, ErrCorrupt)
	if err != nil {
		t.Fatal(err)
	}
	// Find a separator whose duplicates trail into the left leaf: the
	// leaf reached by search routing (leftmost) still covers the key.
	for _, sep := range root.Keys {
		leaf, leftPid, _, err := tr.descendPath(sep, false)
		if err != nil {
			t.Fatal(err)
		}
		if leaf.maxKey == sep {
			return tr, sep, leftPid, leaf.maxPid
		}
	}
	t.Fatal("fixture produced no separator with left-trailing duplicates; retune reps")
	return nil, 0, 0, 0
}

// TestDeleteAtSeparatorFindsLeftDuplicates pins the Delete routing fix:
// the old path used insert routing (key == separator goes right) and
// only ever walked forward, so a counting-filter delete of a separator
// key's association on the *left* leaf could never reach it — it either
// failed with ErrKeyRange (page before the right leaf's range) or
// silently decremented the wrong filter. Search-style routing walks
// every chained leaf covering the key and removes from the leaf whose
// page range holds the pid.
func TestDeleteAtSeparatorFindsLeftDuplicates(t *testing.T) {
	tr, sep, leftPid, leftPage := separatorFixture(t, Options{FPP: 0.01, Filter: CountingFilter})

	// The regression is only exercised if insert routing lands elsewhere.
	_, rightPid, _, err := tr.descendPath(sep, true)
	if err != nil {
		t.Fatal(err)
	}
	if rightPid == leftPid {
		t.Fatal("fixture: insert routing reached the left leaf; separator does not discriminate")
	}

	if err := tr.Delete(sep, leftPage); err != nil {
		t.Fatalf("delete of separator key %d on left-leaf page %d: %v", sep, leftPage, err)
	}
	if got := tr.loadMeta().deletes; got != 1 {
		t.Errorf("deletes counter = %d after one successful delete, want 1", got)
	}

	// The removal was physical and on the left leaf: repeating the
	// delete drains the counting filter until no covering leaf claims
	// the association any more.
	drained := false
	for i := 0; i < 256; i++ {
		if err := tr.Delete(sep, leftPage); err != nil {
			if !errors.Is(err, ErrNotIndexed) {
				t.Fatalf("drain delete %d: %v", i, err)
			}
			drained = true
			break
		}
	}
	if !drained {
		t.Error("association never drained: deletes are not reaching the left leaf's filter")
	}
}

// TestDeleteAccountingWithRemainingDuplicates pins the accounting fix:
// a delete that removes one association of a key still claimed on other
// pages of the leaf must not decrement the leaf's distinct-key count
// (the Equation 5 capacity input); only dropping the key's last
// association may. The drift counter moves once per successful delete,
// and not at all for associations no filter claims.
func TestDeleteAccountingWithRemainingDuplicates(t *testing.T) {
	// Unique keys except key 500, which spans three data pages.
	var keys []uint64
	for k := uint64(0); k < 1000; k++ {
		keys = append(keys, k)
		if k == 500 {
			for r := 0; r < 127; r++ {
				keys = append(keys, k)
			}
		}
	}
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0,
		Options{FPP: 0.001, Filter: CountingFilter})
	if err != nil {
		t.Fatal(err)
	}
	leaf, leafPid, _, err := tr.descendPath(500, false)
	if err != nil {
		t.Fatal(err)
	}
	numKeys0 := leaf.numKeys
	// The three pages holding key 500's run (ordinals 500..627).
	pages := []device.PageID{f.PageOf(500), f.PageOf(563), f.PageOf(627)}
	if pages[0] == pages[2] {
		t.Fatal("fixture: key 500 does not span pages")
	}
	if pages[2] > leaf.maxPid {
		t.Fatal("fixture: key 500's run crosses a leaf boundary; this test needs one leaf")
	}

	readBack := func() *bfLeaf {
		t.Helper()
		l, err := indexReader{t: tr}.leaf(leafPid)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	if err := tr.Delete(500, pages[1]); err != nil {
		t.Fatal(err)
	}
	if got := readBack().numKeys; got != numKeys0 {
		t.Errorf("numKeys = %d after deleting one of three associations, want unchanged %d", got, numKeys0)
	}
	if got := tr.loadMeta().deletes; got != 1 {
		t.Errorf("deletes = %d, want 1", got)
	}

	if err := tr.Delete(500, pages[0]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Delete(500, pages[2]); err != nil {
		t.Fatal(err)
	}
	if got := readBack().numKeys; got != numKeys0-1 {
		t.Errorf("numKeys = %d after dropping the key's last association, want %d", got, numKeys0-1)
	}
	if got := tr.loadMeta().deletes; got != 3 {
		t.Errorf("deletes = %d after three removals, want 3", got)
	}

	// An association no filter claims must not move any counter.
	err = tr.Delete(5000, pages[0])
	if !errors.Is(err, ErrNotIndexed) {
		t.Errorf("deleting an absent key = %v, want ErrNotIndexed", err)
	}
	if got := tr.loadMeta().deletes; got != 3 {
		t.Errorf("absent-key delete moved the drift counter to %d", got)
	}
	if got := readBack().numKeys; got != numKeys0-1 {
		t.Errorf("absent-key delete changed numKeys to %d", got)
	}
}

// TestDeleteStandardUnindexedNotCounted: a standard-filter (logical)
// delete of an association the index never claimed must not inflate the
// Section 7 drift term — the old path counted every call.
func TestDeleteStandardUnindexedNotCounted(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	base := tr.EffectiveFPP()
	// Far outside the key domain: no leaf covers it.
	if err := tr.Delete(1<<40, f.PageOf(0)); err != nil {
		t.Fatalf("logical delete of an unindexed key must be a no-op, got %v", err)
	}
	if got := tr.loadMeta().deletes; got != 0 {
		t.Errorf("unindexed delete recorded %d drift deletes", got)
	}
	if tr.EffectiveFPP() != base {
		t.Error("unindexed delete drifted the effective fpp")
	}
	// A claimed association still counts.
	if err := tr.Delete(100, f.PageOf(100)); err != nil {
		t.Fatal(err)
	}
	if got := tr.loadMeta().deletes; got != 1 {
		t.Errorf("present-key delete recorded %d drift deletes, want 1", got)
	}
}

// TestAppendTailRelinkFailureFreesCOWPages pins the appendLeaf page-leak
// fix: when the final tail relink fails after cowPath has written the
// new path (and possibly a new root), the unpublished pages must return
// to the free list, keeping live + free + limbo == device pages.
func TestAppendTailRelinkFailureFreesCOWPages(t *testing.T) {
	f, _ := buildInitialFile(t, 3000)
	// 128-byte index pages force internal levels, so cowPath writes
	// several fresh nodes per append.
	idx := pagestore.New(device.New(device.Memory, 128))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Fatal("fixture needs internal levels")
	}
	maxKey := uint64(2999)
	_, tailPid, _, err := tr.descendPath(maxKey, true)
	if err != nil {
		t.Fatal(err)
	}

	economy := func(when string) {
		t.Helper()
		tr.writeMu.Lock()
		inLimbo := uint64(len(tr.limboPrev) + len(tr.limboCur))
		tr.writeMu.Unlock()
		live := tr.NumNodes()
		free := uint64(idx.FreePages())
		total := idx.Device().NumPages()
		if live+free+inLimbo != total {
			t.Errorf("%s: page economy leaks: live %d + free %d + limbo %d != device %d",
				when, live, free, inLimbo, total)
		}
	}
	economy("before append")

	injected := fmt.Errorf("injected tail-relink failure")
	tr.leafWriteFault = func(pid device.PageID) error {
		if pid == tailPid {
			return injected
		}
		return nil
	}
	freed0, _ := idx.FreeListStats()
	newPage := tr.lastDataPage()
	err = tr.Insert(maxKey+1, newPage+1)
	if !errors.Is(err, injected) {
		t.Fatalf("append with failing tail relink = %v, want the injected error", err)
	}
	freed1, _ := idx.FreeListStats()
	// At least the new leaf plus one cow path page (the rewritten
	// parent) must have been freed.
	if freed1 < freed0+2 {
		t.Errorf("only %d pages freed on the failure path; cowPath allocations leaked", freed1-freed0)
	}
	economy("after failed append")

	// The tree is undamaged and the freed pages are recyclable: the
	// same append succeeds once the fault is cleared.
	tr.leafWriteFault = nil
	if err := tr.Insert(maxKey+1, newPage+1); err != nil {
		t.Fatalf("retry after clearing the fault: %v", err)
	}
	economy("after successful retry")
	for k := uint64(0); k < 3000; k += 271 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Errorf("key %d lost through the failed append", k)
		}
	}
}
