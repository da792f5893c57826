package bptree

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

func memStore(pageSize int) *pagestore.Store {
	return pagestore.New(device.New(device.Memory, pageSize))
}

// search is a point lookup: a MultiSearch batch of one key.
func search(tr *Tree, key uint64) ([]TupleRef, error) {
	groups, _, err := tr.MultiSearch([]uint64{key})
	if err != nil || len(groups) == 0 {
		return nil, err
	}
	return groups[0].Refs, nil
}

// rangeScan drains a Scan cursor over [lo, hi].
func rangeScan(tr *Tree, lo, hi uint64) ([]TupleRef, error) {
	c, err := tr.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var refs []TupleRef
	for c.Next() {
		refs = append(refs, c.Ref())
	}
	return refs, c.Err()
}

func seqEntries(n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{Key: uint64(i), Ref: TupleRef{Page: device.PageID(i / 15), Slot: uint16(i % 15)}}
	}
	return out
}

func TestCapacities(t *testing.T) {
	// 4096: leaf (4096-11)/18 = 226.
	if c := LeafCapacity(4096); c != 226 {
		t.Errorf("LeafCapacity(4096) = %d, want 226", c)
	}
}

func TestBulkLoadAndSearch(t *testing.T) {
	store := memStore(4096)
	entries := seqEntries(100000)
	tr, err := BulkLoad(store, entries, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEntries() != 100000 {
		t.Fatalf("entries = %d", tr.NumEntries())
	}
	// 100000/226 = 443 leaves, 2 internal levels → height 3.
	if tr.Height() != 3 {
		t.Errorf("height = %d, want 3", tr.Height())
	}
	for _, probe := range []uint64{0, 1, 225, 226, 4999, 99999} {
		refs, err := search(tr, probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 {
			t.Fatalf("key %d: %d refs", probe, len(refs))
		}
		want := entries[probe].Ref
		if refs[0] != want {
			t.Fatalf("key %d: ref %+v, want %+v", probe, refs[0], want)
		}
	}
	// Absent keys.
	if refs, _ := search(tr, 200000); len(refs) != 0 {
		t.Error("absent key matched")
	}
}

func TestBulkLoadValidation(t *testing.T) {
	store := memStore(4096)
	if _, err := BulkLoad(store, nil, 1.0); err == nil {
		t.Error("empty bulk load should fail")
	}
	if _, err := BulkLoad(store, seqEntries(10), 0); err == nil {
		t.Error("zero fill factor should fail")
	}
	if _, err := BulkLoad(store, seqEntries(10), 1.5); err == nil {
		t.Error("fill factor > 1 should fail")
	}
	unsorted := []Entry{{Key: 5}, {Key: 3}}
	if _, err := BulkLoad(store, unsorted, 1.0); err == nil {
		t.Error("unsorted entries should fail")
	}
}

func TestSingleLeafTree(t *testing.T) {
	tr, err := BulkLoad(memStore(4096), seqEntries(10), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Errorf("height = %d, want 1", tr.Height())
	}
	refs, err := search(tr, 5)
	if err != nil || len(refs) != 1 {
		t.Fatal("search in single-leaf tree failed")
	}
	pages, err := tr.InternalPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 0 {
		t.Error("single-leaf tree has no internal pages")
	}
}

func TestDuplicateKeysAcrossLeaves(t *testing.T) {
	// One key repeated more than a leaf's capacity forces duplicates to
	// spill across leaves; a lookup must chase the next pointers.
	var entries []Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{Key: 7, Ref: TupleRef{Page: device.PageID(i), Slot: 0}})
	}
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{Key: 9 + uint64(i), Ref: TupleRef{Page: 1000, Slot: uint16(i)}})
	}
	tr, err := BulkLoad(memStore(4096), entries, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := search(tr, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 500 {
		t.Fatalf("duplicate search found %d of 500", len(refs))
	}
}

func TestRangeScan(t *testing.T) {
	tr, err := BulkLoad(memStore(4096), seqEntries(10000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := rangeScan(tr, 100, 199)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 100 {
		t.Fatalf("range scan returned %d, want 100", len(refs))
	}
	// Range past the end.
	refs, err = rangeScan(tr, 9990, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10 {
		t.Fatalf("tail range returned %d, want 10", len(refs))
	}
	// Empty range between keys.
	if _, err := rangeScan(tr, 10, 5); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestFillFactor(t *testing.T) {
	full, err := BulkLoad(memStore(4096), seqEntries(10000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := BulkLoad(memStore(4096), seqEntries(10000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if half.NumLeaves() <= full.NumLeaves() {
		t.Errorf("half-full tree should have more leaves: %d vs %d", half.NumLeaves(), full.NumLeaves())
	}
}

func TestInsertIntoBulkLoaded(t *testing.T) {
	store := memStore(4096)
	// Even keys bulk-loaded, odd keys inserted.
	var entries []Entry
	for i := 0; i < 20000; i += 2 {
		entries = append(entries, Entry{Key: uint64(i), Ref: TupleRef{Page: device.PageID(i), Slot: 1}})
	}
	tr, err := BulkLoad(store, entries, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20000; i += 2 {
		if err := tr.Insert(Entry{Key: uint64(i), Ref: TupleRef{Page: device.PageID(i), Slot: 2}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.NumEntries() != 20000 {
		t.Fatalf("entries = %d", tr.NumEntries())
	}
	for i := 0; i < 20000; i++ {
		refs, err := search(tr, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 {
			t.Fatalf("key %d: %d refs", i, len(refs))
		}
		wantSlot := uint16(1 + i%2)
		if refs[0].Slot != wantSlot {
			t.Fatalf("key %d: slot %d, want %d", i, refs[0].Slot, wantSlot)
		}
	}
}

func TestInsertGrowsFromSingleLeaf(t *testing.T) {
	store := memStore(512) // tiny pages force early splits
	tr, err := BulkLoad(store, seqEntries(5), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inserted := map[uint64]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(100000))
		for inserted[k] {
			k++
		}
		inserted[k] = true
		if err := tr.Insert(Entry{Key: k, Ref: TupleRef{Page: device.PageID(k), Slot: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Errorf("tree should have grown, height = %d", tr.Height())
	}
	for k := range inserted {
		refs, err := search(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 {
			t.Fatalf("key %d lost after splits: %d refs", k, len(refs))
		}
	}
	// A scan of the whole key space must walk the leaf chain in key
	// order. Each inserted ref's page is its key; the bulk-loaded refs
	// of keys 0..4 sit on page 0.
	refs, err := rangeScan(tr, 0, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(inserted) {
		t.Fatalf("scan yielded %d entries, want %d", len(refs), len(inserted))
	}
	if !sort.SliceIsSorted(refs, func(i, j int) bool { return refs[i].Page < refs[j].Page }) {
		t.Error("leaf chain out of order after splits")
	}
}

// TestMultiSearchAllocs pins in-place routing: a one-key MultiSearch on
// a height-3 tree decodes no internal node, so it allocates only the
// sorted batch, the leaf it decodes and the answer. Decoding the two
// internal nodes on the path cost 6 allocations more.
func TestMultiSearchAllocs(t *testing.T) {
	tr, err := BulkLoad(memStore(512), seqEntries(20000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	keys := []uint64{12345}
	allocs := testing.AllocsPerRun(100, func() {
		groups, _, err := tr.MultiSearch(keys)
		if err != nil || len(groups) != 1 || len(groups[0].Refs) != 1 {
			t.Fatalf("MultiSearch(%v) = %+v, %v", keys, groups, err)
		}
	})
	if allocs > 5 {
		t.Errorf("one-key MultiSearch: %.0f allocs, want at most 5", allocs)
	}
}

// TestInsertAllocs pins that an insert decodes no internal node unless
// the leaf splits: a non-splitting insert on a height-4 tree allocates
// the leaf it decodes and rewrites, the page buffer and the descent
// path, but no copy of the three internal nodes it routed through
// (decoding them cost 9 allocations more).
func TestInsertAllocs(t *testing.T) {
	tr, err := BulkLoad(memStore(512), seqEntries(20000), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 4 {
		t.Fatalf("height %d, want 4", tr.Height())
	}
	leaves := tr.NumLeaves()
	key := uint64(0)
	allocs := testing.AllocsPerRun(100, func() {
		key += 97 // leaves are half full: no two inserts split one
		if err := tr.Insert(Entry{Key: key, Ref: TupleRef{Page: 1}}); err != nil {
			t.Fatal(err)
		}
	})
	if tr.NumLeaves() != leaves {
		t.Fatalf("leaves %d -> %d: an insert split", leaves, tr.NumLeaves())
	}
	if allocs > 8 {
		t.Errorf("non-splitting Insert: %.0f allocs, want at most 8", allocs)
	}
}

// TestCorruptInternalPage: a corrupt internal page answers ErrCorrupt,
// this package's sentinel, on every path that reads one.
func TestCorruptInternalPage(t *testing.T) {
	store := memStore(512)
	tr, err := BulkLoad(store, seqEntries(20000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, store.PageSize())
	page[0] = branch.Kind
	binary.LittleEndian.PutUint16(page[1:3], 0xffff) // keys and children overflow the page
	if err := store.WritePage(tr.root, page); err != nil {
		t.Fatal(err)
	}
	_, _, serr := tr.MultiSearch([]uint64{5})
	_, cerr := tr.Scan(0, 10)
	_, werr := tr.InternalPages()
	for name, err := range map[string]error{
		"MultiSearch":   serr,
		"Scan":          cerr,
		"InternalPages": werr,
		"Insert":        tr.Insert(Entry{Key: 5}),
	} {
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestInternalPagesForWarming(t *testing.T) {
	tr, err := BulkLoad(memStore(4096), seqEntries(100000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := tr.InternalPages()
	if err != nil {
		t.Fatal(err)
	}
	wantInternal := tr.NumNodes() - tr.NumLeaves()
	if uint64(len(pages)) != wantInternal {
		t.Errorf("internal pages = %d, want %d", len(pages), wantInternal)
	}
}

func TestSizeAccounting(t *testing.T) {
	tr, err := BulkLoad(memStore(4096), seqEntries(100000), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SizeBytes() != tr.NumNodes()*4096 {
		t.Error("SizeBytes mismatch")
	}
}

func TestNodeRoundTrip(t *testing.T) {
	buf := make([]byte, 4096)
	leaf := &leafNode{
		next:    77,
		entries: []Entry{{Key: 1, Ref: TupleRef{Page: 2, Slot: 3}}, {Key: 9, Ref: TupleRef{Page: 8, Slot: 7}}},
	}
	if err := encodeLeaf(buf, leaf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeLeaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.next != 77 || len(back.entries) != 2 || back.entries[1].Ref.Page != 8 {
		t.Errorf("leaf round trip: %+v", back)
	}
}

func TestNodeCorruption(t *testing.T) {
	buf := make([]byte, 64)
	if _, err := decodeLeaf(buf); err == nil {
		t.Error("zero page should not decode as leaf")
	}
	if _, err := nodeKind(buf); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := nodeKind(buf[:1]); err == nil {
		t.Error("short page should fail")
	}
	// Overflow.
	huge := &leafNode{entries: make([]Entry, 1000)}
	if err := encodeLeaf(buf, huge); err == nil {
		t.Error("oversized leaf should fail to encode")
	}
}

// Property: bulk load + search agree with a map for random multisets.
func TestQuickSearchMatchesReference(t *testing.T) {
	prop := func(rawKeys []uint16) bool {
		if len(rawKeys) == 0 {
			return true
		}
		entries := make([]Entry, len(rawKeys))
		counts := make(map[uint64]int)
		for i, rk := range rawKeys {
			k := uint64(rk % 500)
			entries[i] = Entry{Key: k, Ref: TupleRef{Page: device.PageID(i), Slot: 0}}
			counts[k]++
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		tr, err := BulkLoad(memStore(512), entries, 1.0)
		if err != nil {
			return false
		}
		for k, want := range counts {
			refs, err := search(tr, k)
			if err != nil || len(refs) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: range scans agree with filtering the sorted entry list.
func TestQuickRangeScanMatchesReference(t *testing.T) {
	entries := seqEntries(3000)
	tr, err := BulkLoad(memStore(1024), entries, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint16) bool {
		lo, hi := uint64(a%3500), uint64(b%3500)
		if lo > hi {
			lo, hi = hi, lo
		}
		refs, err := rangeScan(tr, lo, hi)
		if err != nil {
			return false
		}
		want := 0
		for k := lo; k <= hi && k < 3000; k++ {
			want++
		}
		return len(refs) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
