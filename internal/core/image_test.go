package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// TestHeldImagesSurviveWrites holds every index page image read before
// each write path runs — an in-place insert, a delete, a buffered
// flush, a compacting maintenance pass, a leaf split and the persist
// path (MarshalMeta, Open, Rebuild) — and then compares each held image
// with its checksum. Readers keep the images ReadPage hands out without
// a lock, so no write may ever reach one; recycled page ids must get
// fresh images too.
func TestHeldImagesSurviveWrites(t *testing.T) {
	// The threshold sits just above the design fpp, so the drift of the
	// first three steps puts the compact step's Maintain over it.
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01, Filter: CountingFilter,
		Maintenance: MaintenancePolicy{FPPThreshold: 0.0105, IncrementalBatch: 8}})
	type held struct {
		step string
		pid  device.PageID
		img  []byte
		sum  uint32
	}
	var images []held
	hold := func(step string) {
		for pid := device.PageID(0); uint64(pid) < idx.Device().NumPages(); pid++ {
			img, err := idx.ReadPage(pid)
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, held{step, pid, img, crc32.ChecksumIEEE(img)})
		}
	}
	check := func() {
		t.Helper()
		for _, h := range images {
			if crc32.ChecksumIEEE(h.img) != h.sum {
				t.Fatalf("the image of page %d held before %s changed", h.pid, h.step)
			}
		}
	}
	oddKey := func(ord int) (uint64, device.PageID) { return keys[ord] + 1, f.PageOf(uint64(ord)) }

	hold("insert")
	for i := 0; i < 50; i++ {
		if err := tr.Insert(oddKey(i * 79 % len(keys))); err != nil {
			t.Fatal(err)
		}
	}
	check()

	hold("delete")
	for i := 0; i < 50; i++ {
		ord := i * 173 % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	check()

	hold("flush")
	b := tr.NewBufferedInserter(1 << 20)
	for i := 0; i < 50; i++ {
		if err := b.Insert(oddKey(i * 131 % len(keys))); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	check()

	hold("compact")
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if n := tr.MaintenanceStats().LeavesCompacted; n == 0 {
		t.Fatal("Maintain compacted no leaf, want some")
	}
	check()

	// A split: saturate a leaf's key count, then insert a new key into it
	// (as TestCOWSplitRecyclesPages does).
	hold("split")
	before := tr.NumLeaves()
	for ord := 1; ord < len(keys) && tr.NumLeaves() == before; ord += 97 {
		k, pid := oddKey(ord)
		leaf, leafPid, _, err := tr.descendPath(k, true)
		if err != nil {
			t.Fatal(err)
		}
		if pid < leaf.minPid || pid > leaf.maxPid || leaf.probeOne(leaf.bfIndexOf(pid), k) {
			continue
		}
		leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
		if err := tr.writeLeaf(leafPid, leaf); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(k, pid); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumLeaves() == before {
		t.Fatal("no insert split a leaf; fixture broken")
	}
	if err := tr.Maintain(); err != nil { // reclaim, so later writes recycle ids
		t.Fatal(err)
	}
	check()

	hold("persist")
	re, err := Open(idx, f, tr.MarshalMeta())
	if err != nil {
		t.Fatal(err)
	}
	k, pid := oddKey(7)
	if err := re.Insert(k, pid); err != nil {
		t.Fatal(err)
	}
	if err := re.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := re.Maintain(); err != nil {
		t.Fatal(err)
	}
	if res, err := re.SearchFirst(keys[1]); err != nil || len(res.Tuples) != 1 {
		t.Fatalf("search after rebuild: %v (err %v)", res, err)
	}
	check()
	if freed, reused := idx.FreeListStats(); freed == 0 || reused == 0 {
		t.Errorf("freed %d and reused %d page ids: the check never saw a recycled page", freed, reused)
	}
}

// cachedSynthetic bulk-loads a tree (fpp 1e-3) over field fieldIdx of
// a 20,000-tuple synthetic relation whose att1 values repeat about
// avgCard times each, with index and data pages cached. The read-path
// allocation pins run on it.
func cachedSynthetic(t *testing.T, avgCard, fieldIdx int) (*workload.Synthetic, *Tree) {
	t.Helper()
	data := pagestore.New(device.New(device.Memory, 4096), pagestore.WithCache(1024))
	syn, err := workload.GenerateSynthetic(data, 20000, avgCard, 1)
	if err != nil {
		t.Fatal(err)
	}
	idx := pagestore.New(device.New(device.Memory, 4096), pagestore.WithCache(256))
	tr, err := BulkLoad(idx, syn.File, fieldIdx, Options{FPP: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	return syn, tr
}

// TestCachedSearchFirstAllocations gates the warm point lookup: with the
// index and data pages cached, SearchFirst copies no page, decodes no
// internal node and copies no tuple. What is left is the result, the
// leaf header, the filter-match list and the result's tuple list, whose
// one slot is a view of the data page image.
func TestCachedSearchFirstAllocations(t *testing.T) {
	syn, tr := cachedSynthetic(t, 11, 0)
	if tr.Height() < 2 {
		t.Fatalf("height %d: the gate needs an internal level", tr.Height())
	}
	key := syn.MaxPK / 2
	if res, err := tr.SearchFirst(key); err != nil || len(res.Tuples) != 1 {
		t.Fatalf("warm-up search: %v (err %v)", res, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = tr.SearchFirst(key) }); n > 4 {
		t.Errorf("cached SearchFirst allocates %v objects, want <= 4", n)
	}
}

// TestScanAllocations gates the streaming scan: a drained ScanOptimized
// over 1,000 keys allocates fewer objects than the data pages it reads.
// Its tuples are views of the page images and one selection buffer
// serves every page, so what is left is per leaf (the header, the page
// list, a boundary's probe state) or grows with the range (the boundary's
// set of pages read, the caller's tuple list).
func TestScanAllocations(t *testing.T) {
	_, tr := cachedSynthetic(t, 11, 0)
	var tuples int
	var stats ProbeStats
	allocs := testing.AllocsPerRun(20, func() {
		c, err := tr.ScanOptimized(5000, 5999)
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for c.Next() {
			out = append(out, c.Tuple())
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		tuples, stats = len(out), c.Stats()
		c.Close()
	})
	if tuples != 1000 {
		t.Fatalf("scan returned %d tuples, want 1000", tuples)
	}
	if allocs >= float64(stats.DataPagesRead) {
		t.Errorf("drained scan allocates %v objects for %d data pages, want fewer than the pages",
			allocs, stats.DataPagesRead)
	}
}

// TestMultiSearchAllocations gates the batched probe: a 16-key batch
// over keys that repeat about 64 times each returns about 1,000 tuples
// and allocates no object per tuple, fewer than one per eight.
func TestMultiSearchAllocations(t *testing.T) {
	syn, tr := cachedSynthetic(t, 64, 1)
	mid := len(syn.ATT1Keys) / 2
	keys := syn.ATT1Keys[mid : mid+16]
	var tuples int
	allocs := testing.AllocsPerRun(50, func() {
		res, err := tr.MultiSearch(keys)
		if err != nil {
			t.Fatal(err)
		}
		tuples = len(res.Tuples)
	})
	if tuples < 16*32 {
		t.Fatalf("batch returned %d tuples: the fixture should repeat each key about 64 times", tuples)
	}
	if allocs*8 >= float64(tuples) {
		t.Errorf("16-key MultiSearch allocates %v objects for %d tuples, want fewer than one per eight",
			allocs, tuples)
	}
}

// TestWritePathAllocations gates the latched write tier on a tree with
// an internal level, for both filter kinds: an in-place Insert of an
// association the leaf already indexes, and a Delete of an indexed
// association in an interior leaf. Neither may decode an internal node.
// An Insert allocates the leaf header it re-reads under the latch, the
// leaf's private page and the image the write publishes. A Delete adds
// the header of the covering leaf and the drift snapshot it publishes;
// the next leaf, which ends the covering-leaf walk, is read but not
// decoded, because its header's minKey is past the key.
func TestWritePathAllocations(t *testing.T) {
	const n = 20000
	f, _ := buildInitialFile(t, n)
	for _, kind := range []FilterKind{StandardFilter, CountingFilter} {
		tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 1e-3, Filter: kind})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Height() < 2 {
			t.Fatalf("height %d: the gate needs an internal level", tr.Height())
		}
		key := uint64(n / 2)
		if a := testing.AllocsPerRun(100, func() { _ = tr.Insert(key, f.PageOf(key)) }); a > 3 {
			t.Errorf("filter kind %d: in-place Insert allocates %v objects, want <= 3", kind, a)
		}
		// Each run deletes a different association, so a counting leaf
		// always finds the one it removes.
		next := uint64(0)
		if a := testing.AllocsPerRun(100, func() {
			next += 97
			if err := tr.Delete(next, f.PageOf(next)); err != nil {
				t.Fatal(err)
			}
		}); a > 5 {
			t.Errorf("filter kind %d: Delete allocates %v objects, want <= 5", kind, a)
		}
	}
}

// encodedInternal is a valid internal page of count sorted keys drawn
// from rng, with distinct children.
func encodedInternal(rng *rand.Rand, pageSize, count int) []byte {
	n := &branch.Node{Keys: make([]uint64, count), Children: make([]device.PageID, count+1)}
	for i := range n.Keys {
		n.Keys[i] = uint64(rng.Intn(64)) // small domain: duplicate separators
	}
	slices.Sort(n.Keys)
	for i := range n.Children {
		n.Children[i] = device.PageID(1000 + i)
	}
	buf := make([]byte, pageSize)
	if err := branch.Encode(buf, n); err != nil {
		panic(err)
	}
	return buf
}

// FuzzRoute fuzzes the in-place routing of internal pages as the
// BF-Tree's descent reads them: branch.Route, branch.Count and
// branch.Decode, each given this package's ErrCorrupt. No page may
// panic them. They must reject the same pages, each with ErrCorrupt, a
// key count whose keys and children overflow the page included. On
// every page Decode accepts, Route must pick the child a binary search
// of the decoded node picks, for both the search (leftmost) and the
// insert (rightmost) rule. The seed corpus — valid nodes up to full
// fanout, their truncations, and counts just past what fits — runs
// under plain go test. bptree's FuzzDecodeInternal fuzzes the same
// pages' decode and re-encode under the B+-Tree's sentinel.
func FuzzRoute(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{64, 256} {
		for _, count := range []int{0, 1, 2, 7, branch.Capacity(size) - 1} {
			if count >= branch.Capacity(size) {
				continue
			}
			buf := encodedInternal(rng, size, count)
			for _, key := range []uint64{0, 5, 31, 63, 1 << 40} {
				f.Add(buf, key)
			}
			f.Add(buf[:len(buf)/2], uint64(31))
			over := slices.Clone(buf)
			binary.LittleEndian.PutUint16(over[1:3], uint16(branch.Capacity(size)))
			f.Add(over, uint64(31))
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{nodeBFLeaf, 0, 0}, uint64(0))

	f.Fuzz(func(t *testing.T, buf []byte, key uint64) {
		n, derr := branch.Decode(buf, ErrCorrupt)
		_, cerr := branch.Count(buf, ErrCorrupt)
		for _, forInsert := range []bool{false, true} {
			slot, child, err := branch.Route(buf, key, forInsert, ErrCorrupt)
			if derr != nil {
				if !errors.Is(derr, ErrCorrupt) || !errors.Is(cerr, ErrCorrupt) || !errors.Is(err, ErrCorrupt) {
					t.Fatalf("rejections %v, %v and %v (route: slot %d child %d) must all wrap ErrCorrupt", derr, cerr, err, slot, child)
				}
				continue
			}
			if err != nil || cerr != nil {
				t.Fatalf("Route (%v) or Count (%v) rejects a node Decode accepts", err, cerr)
			}
			want := sort.Search(len(n.Keys), func(i int) bool {
				if forInsert {
					return key < n.Keys[i]
				}
				return key <= n.Keys[i]
			})
			if slot != want || child != n.Children[want] {
				t.Fatalf("insert=%v key %d: Route gives slot %d child %d, the decoded node %d %d",
					forInsert, key, slot, child, want, n.Children[want])
			}
		}
		// 3 header bytes, count keys and count+1 children of 8 bytes each.
		if len(buf) >= 3 && buf[0] == branch.Kind {
			count := int(binary.LittleEndian.Uint16(buf[1:3]))
			if 3+16*count+8 > len(buf) && !errors.Is(derr, ErrCorrupt) {
				t.Fatalf("count %d overflows a %d-byte page, Decode returned %v", count, len(buf), derr)
			}
		}
	})
}

// FuzzDecodeBFLeaf fuzzes the BF-leaf decoder. No image may panic it or
// be rejected with anything but ErrCorrupt; on an accepted image every
// probe and update path must stay inside the filter region (probe,
// addKey, removeKey on every covered page), the word-AND probe must
// return exactly the filters the per-filter test accepts, the image
// itself must stay unchanged (the leaf copies on write), and the leaf
// must re-encode and decode to the same header. The seed corpus —
// standard and counting leaves, their truncations, single-byte flips of
// the header, and leaves of S = 1, 64, 65 and 127 whose region ends at
// the buffer's last byte, where a probe's windows take the tail path —
// runs under plain go test.
func FuzzDecodeBFLeaf(f *testing.F) {
	for _, kind := range []FilterKind{StandardFilter, CountingFilter} {
		o, _ := Options{FPP: 0.01, Hashes: 3, Granularity: 2, Filter: kind}.withDefaults()
		fill := func(l *bfLeaf) []byte {
			n := uint64(l.numPages())
			for k := uint64(0); k < 20; k++ {
				if err := l.addKey(k, l.minPid+device.PageID(k%n)); err != nil {
					f.Fatal(err)
				}
			}
			l.minKey, l.maxKey, l.numKeys = 0, 19, 20
			buf, err := encodeBFLeaf(l)
			if err != nil {
				f.Fatal(err)
			}
			return buf
		}
		buf := fill(newBFLeaf(10, 17, o, 64, 4, 256))
		f.Add(buf)
		f.Add(buf[:leafHeaderSize])
		f.Add(buf[:leafHeaderSize+10])
		for i := 0; i < leafHeaderSize; i++ {
			flipped := slices.Clone(buf)
			flipped[i] ^= 0xff
			f.Add(flipped)
		}
		for _, s := range []int{1, 64, 65, 127} {
			// Rows of 64 positions fill the region to its last byte, and
			// the page ends with the region.
			page := leafHeaderSize + s*filterBytes(kind, 64)
			f.Add(fill(newBFLeaf(10, 10+device.PageID(2*s-1), o, 64, s, page)))
		}
	}

	f.Fuzz(func(t *testing.T, buf []byte) {
		l, err := decodeBFLeaf(buf)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		orig := slices.Clone(buf)
		if l.numPages()*l.s > 1<<20 {
			return // valid, but too wide to walk page by page, filter by filter here
		}
		for pid := l.minPid; ; pid++ {
			key := uint64(pid) * 7919
			var want []int
			for bid := 0; bid < l.s; bid++ {
				if l.probeOne(bid, key) {
					want = append(want, bid)
				}
			}
			if got := l.probe(key); !slices.Equal(got, want) {
				t.Fatalf("probe(%d) = %v, per-filter tests accept %v", key, got, want)
			}
			if err := l.addKey(key, pid); err != nil {
				t.Fatalf("addKey on covered page %d: %v", pid, err)
			}
			if !slices.Contains(l.probe(key), l.bfIndexOf(pid)) {
				t.Fatalf("probe(%d) misses the filter of page %d it was just added to", key, pid)
			}
			if l.kind == CountingFilter {
				if _, err := l.removeKey(key, pid); err != nil {
					t.Fatalf("removeKey of a key just added to page %d: %v", pid, err)
				}
			}
			if pid == l.maxPid {
				break
			}
		}
		if !slices.Equal(buf, orig) {
			t.Fatal("updating the decoded leaf wrote into its image")
		}
		out, err := encodeBFLeaf(l)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := decodeBFLeaf(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.minPid != l.minPid || back.maxPid != l.maxPid || back.s != l.s || len(back.filters) != len(l.filters) ||
			back.hashes != l.hashes || back.kind != l.kind || back.posPerBF != l.posPerBF {
			t.Fatalf("round trip changed the header: %+v -> %+v", l, back)
		}
	})
}
