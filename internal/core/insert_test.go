package core

import (
	"testing"

	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

var insertSchema = heapfile.Schema{
	TupleSize: 64,
	Fields:    []heapfile.Field{{Name: "k", Offset: 0}},
}

// buildInitialFile creates a file with keys 0..n-1 (unique, ordered).
func buildInitialFile(t *testing.T, n int) (*heapfile.File, *pagestore.Store) {
	t.Helper()
	store := pagestore.New(device.New(device.Memory, 4096))
	b, err := heapfile.NewBuilder(store, insertSchema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, 64)
	for i := 0; i < n; i++ {
		insertSchema.Set(tup, 0, uint64(i))
		if err := b.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f, store
}

func TestInsertIntoExistingPage(t *testing.T) {
	// Simulate an update that adds a key already physically on a page:
	// re-inserting existing keys must not error, must keep searches
	// working, and must not inflate the distinct-key count.
	f, _ := buildInitialFile(t, 5000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	before := tr.NumKeys()
	for k := uint64(0); k < 100; k++ {
		pid := f.PageOf(k)
		if err := tr.Insert(k, pid); err != nil {
			t.Fatalf("re-insert %d: %v", k, err)
		}
	}
	if got := tr.loadMeta().inserts; got != 0 {
		t.Errorf("re-inserting present keys recorded %d drift inserts", got)
	}
	if tr.NumKeys() != before {
		t.Error("re-inserts changed key count")
	}
	res, err := tr.SearchFirst(50)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("search broken after re-inserts")
	}
}

func TestInsertRejectsDisorder(t *testing.T) {
	f, _ := buildInitialFile(t, 5000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Key 10 belongs to the first leaf; claiming it lives on the last
	// page violates the ordering assumption (the first leaf is not the
	// tail, so no append path applies).
	if tr.NumLeaves() < 2 {
		t.Skip("need multiple leaves")
	}
	lastPage := f.FirstPage() + device.PageID(f.NumPages()) - 1
	if err := tr.Insert(10, lastPage); err == nil {
		t.Error("insert violating order accepted")
	}
	if err := tr.Insert(10, f.FirstPage()-1); err == nil && f.FirstPage() > 0 {
		t.Error("insert before leaf range accepted")
	}
}

func TestAppendGrowsTree(t *testing.T) {
	// Start small, append new keys on new data pages, verify everything
	// stays searchable.
	store := pagestore.New(device.New(device.Memory, 4096))
	b, err := heapfile.NewBuilder(store, insertSchema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, 64)
	const initial = 1000
	for i := 0; i < initial; i++ {
		insertSchema.Set(tup, 0, uint64(i))
		b.Append(tup)
	}
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}

	// Append more tuples to the file (new builder extends the store) and
	// index them. The appended pages continue the pid sequence.
	b2, err := heapfile.NewBuilder(store, insertSchema)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 2000
	for i := initial; i < initial+extra; i++ {
		insertSchema.Set(tup, 0, uint64(i))
		b2.Append(tup)
	}
	f2, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The second segment's pages follow the first contiguously; extend
	// the tree's file view before indexing the new tuples.
	f.Extend(f2.NumPages(), f2.NumTuples())
	perPage := f.TuplesPerPage()
	for i := initial; i < initial+extra; i++ {
		ordinal := uint64(i - initial)
		pid := f2.FirstPage() + device.PageID(ordinal/uint64(perPage))
		if err := tr.Insert(uint64(i), pid); err != nil {
			t.Fatalf("append insert %d: %v", i, err)
		}
	}

	for _, k := range []uint64{0, 999, 1000, 1500, 2999} {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatalf("search %d: %v", k, err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d lost after appends", k)
		}
	}
	if tr.NumLeaves() < 2 {
		t.Error("appends should have added leaves")
	}
}

func TestSplitLeafKeepsAllKeys(t *testing.T) {
	// Force splits with a tiny page size: few keys per leaf.
	f, _ := buildInitialFile(t, 3000)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	leavesBefore := tr.NumLeaves()
	// Descend to a leaf and split it directly.
	leaf, leafPid, path, err := tr.descendPath(100, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.splitLeaf(leaf, leafPid, path); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != leavesBefore+1 {
		t.Errorf("leaves %d, want %d", tr.NumLeaves(), leavesBefore+1)
	}
	// Every key in the split range must still be findable (no false
	// negatives through a split).
	for k := uint64(0); k < 3000; k += 7 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d lost after split", k)
		}
	}
}

func TestSplitByRebuildMatchesProbe(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _, _, err := tr.descendPath(500, false)
	if err != nil {
		t.Fatal(err)
	}
	pl, pr, err := tr.splitByProbe(leaf)
	if err != nil {
		t.Fatal(err)
	}
	rl, rr, err := tr.splitByRebuild(leaf)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuild is exact; the probe variant may include false
	// positives but must cover at least the same keys.
	if pl.minKey > rl.minKey || pl.maxKey < rl.maxKey {
		t.Errorf("probe left [%d,%d] does not cover exact [%d,%d]",
			pl.minKey, pl.maxKey, rl.minKey, rl.maxKey)
	}
	if pr.minKey > rr.minKey || pr.maxKey < rr.maxKey {
		t.Errorf("probe right [%d,%d] does not cover exact [%d,%d]",
			pr.minKey, pr.maxKey, rr.minKey, rr.maxKey)
	}
	if pl.numKeys < rl.numKeys || pr.numKeys < rr.numKeys {
		t.Error("probe split lost keys vs exact rebuild")
	}
}

func TestInsertTriggersSplitAtCapacity(t *testing.T) {
	// Sparse even keys leave odd keys free to insert as genuinely new;
	// only a new key may trigger the capacity split — a key the leaf
	// already claims absorbs in place regardless of capacity.
	keys := make([]uint64, 800)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate one leaf's key budget by marking it full, then insert a
	// new odd key whose data page the leaf covers.
	leaf, leafPid, _, err := tr.descendPath(keys[100], false)
	if err != nil {
		t.Fatal(err)
	}
	leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
	if err := tr.writeLeaf(leafPid, leaf); err != nil {
		t.Fatal(err)
	}
	leavesBefore := tr.NumLeaves()
	newKey := leaf.minKey + 1
	if err := tr.Insert(newKey, f.PageOf(leaf.minKey/2)); err != nil {
		t.Fatalf("insert at capacity: %v", err)
	}
	if tr.NumLeaves() <= leavesBefore {
		t.Error("new key into a full leaf should split it")
	}
	// A key the tree already claims absorbs in place even into a full
	// leaf: no further split.
	leavesAfter := tr.NumLeaves()
	if err := tr.Insert(newKey, f.PageOf(leaf.minKey/2)); err != nil {
		t.Fatalf("re-insert after split: %v", err)
	}
	if tr.NumLeaves() != leavesAfter {
		t.Error("re-inserting a claimed key split a leaf")
	}
	// Tree still finds pre-existing keys.
	for i := 0; i < len(keys); i += 11 {
		res, err := tr.SearchFirst(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d lost after capacity split", keys[i])
		}
	}
}

func TestDeleteStandardDrifts(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	base := tr.EffectiveFPP()
	for k := uint64(0); k < 200; k++ {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.EffectiveFPP() <= base {
		t.Error("standard-filter deletes must raise effective fpp")
	}
	// Deleted keys still "found" (lossy deletes leave the bits).
	res, err := tr.SearchFirst(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Error("standard delete should not remove physical data")
	}
}

func TestDeleteCountingRemoves(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.001, Filter: CountingFilter})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(123)
	pid := f.PageOf(key)
	res, err := tr.Search(key)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("pre-delete search failed")
	}
	if err := tr.Delete(key, pid); err != nil {
		t.Fatal(err)
	}
	// The filter no longer claims the key for that page; candidates for
	// the key should now be empty (the tuple is still physically there,
	// but the index forgot it, which is the contract of an index delete).
	var stats ProbeStats
	pages, err := tr.candidatePages(key, &stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if p == pid {
			t.Error("deleted key still a candidate on its page")
		}
	}
	// Neighbors survive.
	for _, k := range []uint64{122, 124} {
		res, err := tr.SearchFirst(k)
		if err != nil || len(res.Tuples) != 1 {
			t.Fatalf("neighbor %d lost by delete", k)
		}
	}
}

func TestCountingTreeSearches(t *testing.T) {
	f, _ := buildInitialFile(t, 3000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Filter: CountingFilter})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3000; k += 17 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("counting tree lost key %d", k)
		}
	}
	// Counting trees are larger (4 bits/position): fewer keys per leaf.
	idx2 := pagestore.New(device.New(device.Memory, 4096))
	std, err := BulkLoad(idx2, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() <= std.NumLeaves() {
		t.Errorf("counting tree should need more leaves: %d vs %d", tr.NumLeaves(), std.NumLeaves())
	}
}
