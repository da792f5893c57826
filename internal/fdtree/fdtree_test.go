package fdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bftree/internal/bptree"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

func memStore() *pagestore.Store {
	return pagestore.New(device.New(device.Memory, 4096))
}

// search is a point lookup: a MultiSearch batch of one key.
func search(tr *Tree, key uint64) ([]bptree.TupleRef, int, error) {
	groups, reads, err := tr.MultiSearch([]uint64{key})
	if err != nil || len(groups) == 0 {
		return nil, reads, err
	}
	return groups[0].Refs, reads, nil
}

// rangeScan drains a Scan cursor over [lo, hi].
func rangeScan(tr *Tree, lo, hi uint64) ([]bptree.TupleRef, int, error) {
	c, err := tr.Scan(lo, hi)
	if err != nil {
		return nil, 0, err
	}
	defer c.Close()
	var refs []bptree.TupleRef
	for c.Next() {
		refs = append(refs, c.Ref())
	}
	return refs, c.Reads(), c.Err()
}

func seqEntries(n int) []bptree.Entry {
	out := make([]bptree.Entry, n)
	for i := range out {
		out[i] = bptree.Entry{Key: uint64(i), Ref: bptree.TupleRef{Page: device.PageID(i / 15), Slot: uint16(i % 15)}}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(memStore(), Options{HeadCapacity: 2}); err == nil {
		t.Error("tiny head accepted")
	}
	if _, err := New(memStore(), Options{Ratio: 1}); err == nil {
		t.Error("ratio 1 accepted")
	}
	tr, err := New(memStore(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.headCap != defaultHeadCap || tr.ratio != defaultRatio {
		t.Error("defaults not applied")
	}
}

func TestBulkLoadSearch(t *testing.T) {
	entries := seqEntries(100000)
	tr, err := BulkLoad(memStore(), entries, Options{HeadCapacity: 256, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRecords() != 100000 {
		t.Fatalf("records = %d", tr.NumRecords())
	}
	if tr.Levels() < 2 {
		t.Errorf("levels = %d, want multi-level", tr.Levels())
	}
	for _, key := range []uint64{0, 1, 777, 50000, 99999} {
		refs, reads, err := search(tr, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 {
			t.Fatalf("key %d: %d refs", key, len(refs))
		}
		if refs[0] != entries[key].Ref {
			t.Fatalf("key %d: wrong ref", key)
		}
		// One page read per on-device level.
		if reads > tr.Levels() {
			t.Errorf("key %d: %d reads > %d levels", key, reads, tr.Levels())
		}
	}
}

func TestSearchMiss(t *testing.T) {
	tr, err := BulkLoad(memStore(), seqEntries(10000), Options{HeadCapacity: 128, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	refs, _, err := search(tr, 999999)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Error("absent key matched")
	}
}

func TestBulkLoadValidation(t *testing.T) {
	if _, err := BulkLoad(memStore(), nil, Options{}); err == nil {
		t.Error("empty bulk load accepted")
	}
	bad := []bptree.Entry{{Key: 5}, {Key: 1}}
	if _, err := BulkLoad(memStore(), bad, Options{}); err == nil {
		t.Error("unsorted entries accepted")
	}
}

func TestInsertAndCascade(t *testing.T) {
	tr, err := New(memStore(), Options{HeadCapacity: 64, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	inserted := make(map[uint64]bptree.TupleRef)
	for i := 0; i < 3000; i++ {
		k := uint64(rng.Intn(1000000))
		for _, dup := range []bool{inserted[k] != (bptree.TupleRef{})} {
			if dup {
				k++
			}
		}
		ref := bptree.TupleRef{Page: device.PageID(i + 1), Slot: uint16(i % 9)}
		if err := tr.Insert(k, ref); err != nil {
			t.Fatal(err)
		}
		inserted[k] = ref
	}
	if tr.Levels() == 0 {
		t.Error("inserts should have spilled to device levels")
	}
	checked := 0
	for k, ref := range inserted {
		refs, _, err := search(tr, k)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range refs {
			if r == ref {
				found = true
			}
		}
		if !found {
			t.Fatalf("key %d lost after cascading merges", k)
		}
		checked++
		if checked >= 500 {
			break
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, err := New(memStore(), Options{HeadCapacity: 64, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tr.Insert(42, bptree.TupleRef{Page: device.PageID(i), Slot: 0}); err != nil {
			t.Fatal(err)
		}
	}
	refs, _, err := search(tr, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 10 {
		t.Errorf("duplicates: %d of 10", len(refs))
	}
}

func TestLevelGrowth(t *testing.T) {
	tr, err := New(memStore(), Options{HeadCapacity: 32, Ratio: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(uint64(i*7%100000), bptree.TupleRef{Page: device.PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Level sizes respect the logarithmic ratio: each level's capacity
	// is ratio times the previous.
	if tr.levelCapacity(2) != tr.levelCapacity(1)*2 {
		t.Error("level capacities must follow the ratio")
	}
	if tr.Levels() < 3 {
		t.Errorf("expected ≥3 levels after 2000 inserts at head 32, got %d", tr.Levels())
	}
}

func TestSizeBytes(t *testing.T) {
	tr, err := BulkLoad(memStore(), seqEntries(50000), Options{HeadCapacity: 256, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tr.SizeBytes() == 0 {
		t.Error("bulk-loaded tree should have on-device pages")
	}
}

func TestRunPageRoundTrip(t *testing.T) {
	buf := make([]byte, 4096)
	in := []entry{
		{key: 0, kind: kindFence, next: 99},
		{key: 5, kind: kindRecord, ref: bptree.TupleRef{Page: 7, Slot: 3}},
	}
	encodeRunPage(buf, in)
	out, err := decodeRunPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].next != 99 || out[1].ref.Page != 7 || out[1].ref.Slot != 3 {
		t.Fatalf("round trip: %+v", out)
	}
	if _, err := decodeRunPage(make([]byte, 64)); err == nil {
		t.Error("zero page decoded")
	}
}

// Property: FD-Tree search agrees with a reference map across random
// insert batches.
func TestQuickMatchesReference(t *testing.T) {
	tr, err := New(memStore(), Options{HeadCapacity: 32, Ratio: 2})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[uint64]int)
	prop := func(raw uint16) bool {
		k := uint64(raw % 300)
		if err := tr.Insert(k, bptree.TupleRef{Page: device.PageID(counts[k])}); err != nil {
			return false
		}
		counts[k]++
		refs, _, err := search(tr, k)
		return err == nil && len(refs) == counts[k]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchDuplicatesStraddlingPageBoundary pins the straddle fix:
// duplicates of one key split across a run-page boundary must all be
// found. Fence routing is rightmost-biased — it lands on the page that
// *starts* with the key — so without the leftward page walk the records
// at the tail of the preceding page were silently dropped (the flake
// TestQuickMatchesReference used to hit).
func TestSearchDuplicatesStraddlingPageBoundary(t *testing.T) {
	store := memStore()
	per := entriesPerPage(store.PageSize())
	// 210 singleton keys, then 20 duplicates of key 210 positioned so
	// the page boundary at `per` entries falls inside the group, then
	// more singletons to give the run several pages.
	const dupKey, dups = uint64(210), 20
	var entries []bptree.Entry
	for k := uint64(0); k < dupKey; k++ {
		entries = append(entries, bptree.Entry{Key: k, Ref: bptree.TupleRef{Page: device.PageID(k)}})
	}
	for d := 0; d < dups; d++ {
		entries = append(entries, bptree.Entry{Key: dupKey, Ref: bptree.TupleRef{Page: device.PageID(1000 + d)}})
	}
	for k := dupKey + 1; k < dupKey+100; k++ {
		entries = append(entries, bptree.Entry{Key: k, Ref: bptree.TupleRef{Page: device.PageID(k)}})
	}
	if len(entries) <= per || int(dupKey)+dups <= per {
		t.Fatalf("fixture does not straddle: %d entries, %d per page", len(entries), per)
	}
	tr, err := BulkLoad(store, entries, Options{HeadCapacity: 32, Ratio: 2})
	if err != nil {
		t.Fatal(err)
	}
	refs, reads, err := search(tr, dupKey)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != dups {
		t.Fatalf("found %d of %d duplicates straddling the page boundary", len(refs), dups)
	}
	seen := make(map[device.PageID]bool)
	for _, r := range refs {
		if r.Page < 1000 || r.Page >= 1000+dups || seen[r.Page] {
			t.Fatalf("wrong or duplicated ref %v", r)
		}
		seen[r.Page] = true
	}
	if reads == 0 {
		t.Fatal("no pages read")
	}
	// Non-straddling keys are unaffected.
	for _, k := range []uint64{0, 107, 250} {
		refs, _, err := search(tr, k)
		if err != nil || len(refs) != 1 {
			t.Fatalf("key %d: %d refs, err %v", k, len(refs), err)
		}
	}
}

func TestRangeScan(t *testing.T) {
	entries := seqEntries(50000)
	store := memStore()
	tr, err := BulkLoad(store, entries, Options{HeadCapacity: 256, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Spread later inserts across levels so the scan must merge runs.
	for i := 0; i < 600; i++ {
		k := uint64(i * 83)
		if err := tr.Insert(k, bptree.TupleRef{Page: device.PageID(90000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, rng := range [][2]uint64{{0, 0}, {100, 250}, {49900, 60000}, {7, 7}} {
		lo, hi := rng[0], rng[1]
		refs, reads, err := rangeScan(tr, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range entries {
			if e.Key >= lo && e.Key <= hi {
				want++
			}
		}
		for i := 0; i < 600; i++ {
			if k := uint64(i * 83); k >= lo && k <= hi {
				want++
			}
		}
		if len(refs) != want {
			t.Fatalf("range [%d,%d]: %d refs, want %d", lo, hi, len(refs), want)
		}
		if reads == 0 && tr.Levels() > 0 {
			t.Errorf("range [%d,%d] read no run pages", lo, hi)
		}
		for i := 1; i < len(refs); i++ {
			// seqEntries key i maps to page i/15; inserted keys map to
			// 90000+. Key order implies non-decreasing pages within the
			// bulk entries, which is all the contract promises.
			_ = i
		}
	}
	if _, _, err := rangeScan(tr, 5, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestFlushHead(t *testing.T) {
	store := memStore()
	tr, err := BulkLoad(store, seqEntries(1000), Options{HeadCapacity: 64, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer a few inserts that stay below the head capacity.
	for i := 0; i < 10; i++ {
		if err := tr.Insert(uint64(100000+i), bptree.TupleRef{Page: 500}); err != nil {
			t.Fatal(err)
		}
	}
	if len(recordsOf(tr.head)) == 0 {
		t.Fatal("inserts did not buffer in the head")
	}
	if err := tr.FlushHead(); err != nil {
		t.Fatal(err)
	}
	if n := len(recordsOf(tr.head)); n != 0 {
		t.Fatalf("head still holds %d records after FlushHead", n)
	}
	for i := 0; i < 10; i++ {
		refs, _, err := search(tr, uint64(100000+i))
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != 1 {
			t.Fatalf("key %d lost by FlushHead", 100000+i)
		}
	}
	if err := tr.FlushHead(); err != nil { // idempotent no-op
		t.Fatal(err)
	}
}

// TestMergeDeviceBounded pins the free-run recycling of writeRun: the
// merge cascade rewrites whole levels, and without returning the old
// runs to the store's free list the device would grow by a level
// footprint per merge.
func TestMergeDeviceBounded(t *testing.T) {
	store := memStore()
	tr, err := BulkLoad(store, seqEntries(20000), Options{HeadCapacity: 64, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 22000; i++ {
		if err := tr.Insert(uint64(i*7), bptree.TupleRef{Page: device.PageID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Each level rewrite double-buffers (new run allocated before the
	// old one is freed) and requests grow with the record count, so some
	// free-list fragmentation is inherent; 3x the live footprint bounds
	// it. Without recycling, the cascade's cumulative rewrites allocate
	// roughly 10x the live footprint over this workload.
	live := tr.SizeBytes() / uint64(store.PageSize())
	if got := store.Device().NumPages(); got > 3*live {
		t.Fatalf("device at %d pages for %d live run pages; old runs not recycled", got, live)
	}
	if _, reused := store.FreeListStats(); reused == 0 {
		t.Error("no freed run pages were recycled by later merges")
	}
}

// TestRangeScanDuplicatesSpanPages pins the boundary rule of Scan: when
// duplicates of the range's low key fill more than one run page, the
// scan must still return every one of them (the binary search lands on
// the first duplicate page and backs up one; the forward scan covers the
// rest), and must agree with a point lookup on the same tree.
func TestRangeScanDuplicatesSpanPages(t *testing.T) {
	const dups = 600 // ~3 run pages at 215 entries/page
	var entries []bptree.Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, bptree.Entry{Key: uint64(i), Ref: bptree.TupleRef{Page: device.PageID(i)}})
	}
	for i := 0; i < dups; i++ {
		entries = append(entries, bptree.Entry{Key: 1000, Ref: bptree.TupleRef{Page: device.PageID(2000 + i)}})
	}
	for i := 1; i < 1000; i++ {
		entries = append(entries, bptree.Entry{Key: 1000 + uint64(i), Ref: bptree.TupleRef{Page: device.PageID(i)}})
	}
	tr, err := BulkLoad(memStore(), entries, Options{HeadCapacity: 64, Ratio: 4})
	if err != nil {
		t.Fatal(err)
	}
	point, _, err := search(tr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(point) != dups {
		t.Fatalf("lookup of 1000 = %d refs, want %d", len(point), dups)
	}
	rng, _, err := rangeScan(tr, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rng) != dups {
		t.Fatalf("Scan(1000,1000) = %d refs, want %d (disagrees with the point lookup)", len(rng), dups)
	}
	// A range starting inside the duplicate block behaves the same.
	rng2, _, err := rangeScan(tr, 1000, 1005)
	if err != nil {
		t.Fatal(err)
	}
	if len(rng2) != dups+5 {
		t.Fatalf("Scan(1000,1005) = %d refs, want %d", len(rng2), dups+5)
	}
}
