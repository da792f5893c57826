package core

import (
	"errors"
	"sync"
	"testing"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// buildKeyedFile creates a data file holding exactly the given ordered
// keys, one tuple each.
func buildKeyedFile(t *testing.T, keys []uint64) (*heapfile.File, *pagestore.Store) {
	t.Helper()
	store := pagestore.New(device.New(device.Memory, 4096))
	b, err := heapfile.NewBuilder(store, insertSchema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, 64)
	for _, k := range keys {
		insertSchema.Set(tup, 0, k)
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

// descendPath descends to the leaf for key with search or insert
// routing and returns the decoded leaf, its pid and the recorded
// internal path.
func (t *Tree) descendPath(key uint64, forInsert bool) (*bfLeaf, device.PageID, []branch.Frame, error) {
	var path []branch.Frame
	pid, buf, _, err := indexReader{t: t}.descend(t.loadMeta().root, key, forInsert, &path)
	if err != nil {
		return nil, 0, nil, err
	}
	leaf, err := decodeBFLeaf(buf)
	if err != nil {
		return nil, 0, nil, err
	}
	return leaf, pid, path, nil
}

// TestRouteBoundMatchesInsertRouting pins the route bound an insert
// descent reports, which bounds the run of sorted entries one latched
// rewrite absorbs: for any key, every key up to the bound must route to
// the same leaf, and the first key past the bound must not. An
// inclusive bound would claim the separator itself for the left leaf,
// while insert routing (key < separator goes left) sends a key equal to
// the separator right.
func TestRouteBoundMatchesInsertRouting(t *testing.T) {
	f, _ := buildInitialFile(t, 5000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() < 2 {
		t.Skip("need multiple leaves")
	}
	r, root := indexReader{t: tr}, tr.loadMeta().root
	for k := uint64(0); k < 5000; k += 37 {
		leafPid, _, bound, err := r.descend(root, k, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bound < k {
			t.Fatalf("key %d: bound %d below the key itself", k, bound)
		}
		atBoundPid, _, _, err := r.descend(root, bound, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if atBoundPid != leafPid {
			t.Fatalf("key %d: bound %d routes to leaf %d, key's leaf is %d",
				k, bound, atBoundPid, leafPid)
		}
		if bound == ^uint64(0) {
			continue
		}
		pastPid, _, _, err := r.descend(root, bound+1, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pastPid == leafPid {
			t.Fatalf("key %d: bound %d is not tight, %d still routes to leaf %d",
				k, bound, bound+1, leafPid)
		}
	}
}

// TestFlushStraddlingSeparator flushes one batch whose keys surround
// (and include) a separator key and checks the buffered tree ends up
// exactly where direct inserts put an identical twin: same drift
// counters, same answers. With the inclusive bound, the separator key
// was applied to the left leaf — the wrong leaf and the wrong filter.
func TestFlushStraddlingSeparator(t *testing.T) {
	f, _ := buildInitialFile(t, 5000)
	direct, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Height() < 2 {
		t.Skip("need internal levels")
	}
	// The first root separator is the min key of some right-hand leaf.
	rootBuf, err := direct.Store().ReadPage(direct.Root())
	if err != nil {
		t.Fatal(err)
	}
	root, err := branch.Decode(rootBuf, ErrCorrupt)
	if err != nil {
		t.Fatal(err)
	}
	sep := root.Keys[0]

	buf := buffered.NewBufferedInserter(1 << 20)
	for _, k := range []uint64{sep - 2, sep - 1, sep, sep + 1, sep + 2} {
		pid := f.PageOf(k)
		if err := direct.Insert(k, pid); err != nil {
			t.Fatalf("direct insert %d: %v", k, err)
		}
		if err := buf.Insert(k, pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if d, b := direct.loadMeta().inserts, buffered.loadMeta().inserts; d != b {
		t.Errorf("drift counters diverged: direct %d vs buffered %d", d, b)
	}
	for _, k := range []uint64{sep - 2, sep - 1, sep, sep + 1, sep + 2} {
		a, err := direct.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buffered.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tuples) != len(b.Tuples) {
			t.Errorf("key %d: direct %d tuples vs buffered %d", k, len(a.Tuples), len(b.Tuples))
		}
	}
}

// TestFlushKeepsPendingOnError injects a failing entry mid-flush and
// asserts the no-lost-inserts invariant: every buffered entry is either
// durably applied or still pending after the error. The old Flush
// cleared the buffer up front, silently dropping the unapplied
// remainder.
func TestFlushKeepsPendingOnError(t *testing.T) {
	// Sparse keys (0,2,4,...) leave odd keys free to insert as genuinely
	// new in-range keys, which makes the applied prefix observable.
	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() < 2 {
		t.Skip("need a leaf with minPid > 0")
	}
	// Three new odd keys inside a leaf that does not start at page 0;
	// the third gets an impossible pid (before the leaf's page range) so
	// its slow-path insert fails with ErrKeyRange.
	good1, good2, bad := keys[3000]+1, keys[3001]+1, keys[3002]+1
	b := tr.NewBufferedInserter(1 << 20)
	if err := b.Insert(good1, f.PageOf(3000)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(good2, f.PageOf(3001)); err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(bad, 0); err != nil { // page 0 is far left of this leaf
		t.Fatal(err)
	}
	err = b.Flush()
	if !errors.Is(err, ErrKeyRange) {
		t.Fatalf("flush error = %v, want ErrKeyRange", err)
	}
	if got := b.Pending(); got != 1 {
		t.Fatalf("pending after failed flush = %d, want 1 (the failing entry)", got)
	}
	if b.pending[0].key != bad {
		t.Errorf("retained entry has key %d, want the failing %d", b.pending[0].key, bad)
	}
	// The applied prefix is durable: both new keys are now candidates on
	// their pages and counted as drift inserts.
	if got := tr.loadMeta().inserts; got != 2 {
		t.Errorf("drift inserts = %d, want 2 (the applied prefix)", got)
	}
	for i, k := range []uint64{good1, good2} {
		var stats ProbeStats
		pages, err := tr.candidatePages(k, &stats)
		if err != nil {
			t.Fatal(err)
		}
		want := f.PageOf(uint64(3000 + i))
		found := false
		for _, p := range pages {
			if p == want {
				found = true
			}
		}
		if !found {
			t.Errorf("applied key %d lost: page %d not a candidate", k, want)
		}
	}
}

// TestSplitFullDomainSpanLeaf splits a leaf whose key range covers the
// entire uint64 domain. The old enumeration guard computed the span as
// maxKey-minKey+1, which wraps to zero and selected probe enumeration
// over zero keys, failing with a spurious "one half is empty" error.
func TestSplitFullDomainSpanLeaf(t *testing.T) {
	var keys []uint64
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, i)
	}
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, 1<<63+i)
	}
	keys = append(keys, ^uint64(0)) // leaf spans [0, MaxUint64]
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Fatalf("fixture should bulk-load one leaf, got %d", tr.NumLeaves())
	}
	// Saturate the leaf's key budget so the next insert must split.
	leaf, leafPid, _, err := tr.descendPath(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.minKey != 0 || leaf.maxKey != ^uint64(0) {
		t.Fatalf("leaf spans [%d,%d], want the full domain", leaf.minKey, leaf.maxKey)
	}
	leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
	if err := tr.writeLeaf(leafPid, leaf); err != nil {
		t.Fatal(err)
	}
	// A genuinely new key forces the capacity split (a claimed key would
	// absorb in place regardless of capacity).
	if err := tr.Insert(150, f.PageOf(50)); err != nil {
		t.Fatalf("insert into full-domain leaf: %v", err)
	}
	if tr.NumLeaves() != 2 {
		t.Errorf("leaves = %d, want 2 after the split", tr.NumLeaves())
	}
	for _, k := range []uint64{0, 99, 1 << 63, 1<<63 + 99, ^uint64(0)} {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Errorf("key %d lost through the full-domain split", k)
		}
	}
}

// TestBufferedSearchMergesIndexedAndBuffered puts the same key on an
// indexed page and on a buffered (not yet flushed) page and checks the
// search returns both tuples. The old overlay appended buffered matches
// only when the index probe found nothing, losing the buffered copy
// whenever the key already existed somewhere.
func TestBufferedSearchMergesIndexedAndBuffered(t *testing.T) {
	f, store := buildInitialFile(t, 2000)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(777)

	// Append a page holding a second tuple for key (a duplicate arriving
	// out of band), extend the file view, and buffer its insert.
	b2, err := heapfile.NewBuilder(store, insertSchema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, 64)
	insertSchema.Set(tup, 0, key)
	tup[8] = 1 // distinct payload: a second row for the same key
	if err := b2.Append(tup); err != nil {
		t.Fatal(err)
	}
	f2, err := b2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f.Extend(f2.NumPages(), f2.NumTuples())

	buf := tr.NewBufferedInserter(1 << 20)
	if err := buf.Insert(key, f2.FirstPage()); err != nil {
		t.Fatal(err)
	}
	res, err := buf.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("search returned %d tuples, want 2 (indexed + buffered page)", len(res.Tuples))
	}

	// A buffered insert pointing at a page the probe already fetched
	// must not duplicate its tuples.
	if err := buf.Insert(key, f.PageOf(key)); err != nil {
		t.Fatal(err)
	}
	res, err = buf.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("re-fetching an already-probed page changed the count: %d tuples, want 2", len(res.Tuples))
	}
}

// TestConcurrentReadersWithWriter is the single-writer/multi-reader
// contract under the race detector: 8 goroutines run Search/RangeScan
// while one writer streams appends that force new leaves, capacity
// splits, and root growth, all through the COW path. Readers must never
// see an error, a torn tree, or a lost key; afterwards the retired COW
// pages must be reclaimable through the store's free list.
func TestConcurrentReadersWithWriter(t *testing.T) {
	const initial = 3000
	f, dataStore := buildInitialFile(t, initial)
	// 128-byte index pages keep leaf capacity and internal fanout small,
	// so a few thousand appended keys drive many splits and at least one
	// root growth.
	idx := pagestore.New(device.New(device.Memory, 128))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	h0 := tr.Height()

	done := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		defer close(done)
		perPage := f.TuplesPerPage()
		next := uint64(initial)
		tup := make([]byte, 64)
		for batch := 0; batch < 70; batch++ {
			b, err := heapfile.NewBuilder(dataStore, insertSchema)
			if err != nil {
				writerErr = err
				return
			}
			for i := 0; i < perPage; i++ {
				insertSchema.Set(tup, 0, next+uint64(i))
				if err := b.Append(tup); err != nil {
					writerErr = err
					return
				}
			}
			seg, err := b.Finish()
			if err != nil {
				writerErr = err
				return
			}
			f.Extend(seg.NumPages(), seg.NumTuples())
			for i := 0; i < perPage; i++ {
				if err := tr.Insert(next+uint64(i), seg.FirstPage()); err != nil {
					writerErr = err
					return
				}
			}
			next += uint64(perPage)
		}
	}()

	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				k := uint64((i*131 + w*977) % initial)
				if i%4 == 3 {
					if _, err := tr.RangeScan(k, k+20); err != nil {
						t.Errorf("reader %d: range scan [%d,%d]: %v", w, k, k+20, err)
						return
					}
				} else {
					res, err := tr.SearchFirst(k)
					if err != nil {
						t.Errorf("reader %d: search %d: %v", w, k, err)
						return
					}
					if len(res.Tuples) == 0 {
						t.Errorf("reader %d: key %d vanished mid-write", w, k)
						return
					}
				}
				i++
			}
		}(w)
	}
	wg.Wait()
	if writerErr != nil {
		t.Fatalf("writer: %v", writerErr)
	}

	// The writer's structural changes went through: new leaves and at
	// least one root growth.
	if tr.Height() <= h0 {
		t.Errorf("height %d did not grow (started at %d); splits not exercised", tr.Height(), h0)
	}
	// Every appended key is indexed.
	final := f.NumTuples()
	for k := uint64(initial); k < final; k += 97 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Errorf("appended key %d lost", k)
		}
	}
	// With all readers gone, two epoch flips reclaim every retired COW
	// page into the store's free list: the structural churn must not
	// leak pages.
	tr.writeMu.Lock()
	tr.reclaim()
	tr.reclaim()
	leaked := len(tr.limboPrev) + len(tr.limboCur)
	tr.writeMu.Unlock()
	if leaked != 0 {
		t.Errorf("%d retired pages stuck in limbo after quiescent flips", leaked)
	}
	if idx.FreePages() == 0 {
		t.Error("no retired pages reached the free list; COW is leaking")
	}
	if freed, _ := idx.FreeListStats(); freed == 0 {
		t.Error("free-list accounting saw no frees")
	}
}

// TestCOWSplitRecyclesPages checks the quiescent (no concurrent
// readers) page economy: after heavy structural churn, retired pages
// are reused by later allocations, so the index's device footprint
// stays near its live page count instead of growing with every split.
func TestCOWSplitRecyclesPages(t *testing.T) {
	// Sparse even keys: the odd keys inserted below are genuinely new,
	// which is what pushes a saturated leaf into a split (a claimed key
	// absorbs in place regardless of capacity).
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 128))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Inserting new odd keys into leaves whose capacity is saturated
	// forces a long run of splits without needing new data pages.
	splits := 0
	for round := 0; round < 60; round++ {
		ord := round * 37 % 2000
		k := keys[ord] + 1
		pid := f.PageOf(uint64(ord))
		leaf, leafPid, _, err := tr.descendPath(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if pid < leaf.minPid || pid > leaf.maxPid {
			continue // boundary ordinal routed past its page's leaf
		}
		if uint64(leaf.numKeys) < tr.geo.KeysPerLeaf {
			leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
			if err := tr.writeLeaf(leafPid, leaf); err != nil {
				t.Fatal(err)
			}
		}
		before := tr.NumLeaves()
		if err := tr.Insert(k, pid); err != nil {
			t.Fatal(err)
		}
		if tr.NumLeaves() > before {
			splits++
		}
	}
	if splits == 0 {
		t.Fatal("no insert forced a split; fixture broken")
	}
	freed, reused := idx.FreeListStats()
	if freed == 0 {
		t.Fatal("no pages were freed across 40 forced splits")
	}
	if reused == 0 {
		t.Fatal("no freed pages were recycled by later splits")
	}
	// Live pages + currently free + still-in-limbo account for the whole
	// device: nothing leaked.
	live := tr.NumNodes()
	inLimbo := uint64(len(tr.limboPrev) + len(tr.limboCur))
	total := idx.Device().NumPages()
	if live+uint64(idx.FreePages())+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, idx.FreePages(), inLimbo, total)
	}
}
