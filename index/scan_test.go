package index_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// The streaming conformance suite pins the tentpole contract: for every
// backend (and every layout variant), a drained Scanner, the slice
// RangeScan and a brute-force file scan agree tuple-for-tuple; a
// MultiSearch batch agrees with the union of its per-key Searches while
// sharing index reads; and early termination actually prices only the
// pages behind the tuples pulled.

// scanVariant is one backend × options configuration under test.
type scanVariant struct {
	name string
	opts index.Options
}

func scanVariants() []scanVariant {
	return []scanVariant{
		{"bftree", index.Options{}},
		{"bfforest", index.Options{}},
		{"bptree", index.Options{}},
		{"bptree-dedup", index.Options{DedupKeys: true}},
		{"fdtree", index.Options{}},
		{"fdtree-dedup", index.Options{DedupKeys: true}},
		{"hash", index.Options{}},
	}
}

func backendOf(v scanVariant) string {
	switch v.name {
	case "bptree-dedup":
		return "bptree"
	case "fdtree-dedup":
		return "fdtree"
	}
	return v.name
}

// unsortedAt returns the index of the first tuple whose key is below
// its predecessor's, or -1 when tuples are in key order.
func unsortedAt(file *heapfile.File, tuples [][]byte) int {
	for i := 1; i < len(tuples); i++ {
		if file.Schema().Get(tuples[i], 0) < file.Schema().Get(tuples[i-1], 0) {
			return i
		}
	}
	return -1
}

func buildVariant(t *testing.T, v scanVariant, file *heapfile.File) index.Index {
	t.Helper()
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	ix, err := index.New(backendOf(v), idxStore, file, 0, v.opts)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// straddleRelation builds a relation whose duplicate runs are guaranteed
// to cross data-page boundaries: the per-key duplicate count is chosen at
// runtime to not divide the page's tuple capacity (the golden relation's
// 3 duplicates divide it exactly, so no key ever straddles there).
func straddleRelation(t *testing.T, n int) (*heapfile.File, uint64) {
	t.Helper()
	schema := heapfile.Schema{
		TupleSize: 64,
		Fields:    []heapfile.Field{{Name: "key", Offset: 0}, {Name: "seq", Offset: 8}},
	}
	store := pagestore.New(device.New(device.Memory, 4096))
	perPage := heapfile.TuplesPerPage(store.PageSize(), schema.TupleSize)
	dups := 0
	for _, d := range []int{4, 5, 7, 11} {
		if perPage%d != 0 {
			dups = d
			break
		}
	}
	if dups == 0 {
		t.Fatalf("no duplicate count straddles with %d tuples per page", perPage)
	}
	b, err := heapfile.NewBuilder(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, schema.TupleSize)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tup[0:8], uint64(i/dups)*5)
		binary.BigEndian.PutUint64(tup[8:16], uint64(i))
		if err := b.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	file, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Find a key whose duplicates span two pages.
	lastPage := map[uint64]device.PageID{}
	var straddle uint64
	found := false
	err = file.Scan(func(pid device.PageID, _ int, tp []byte) bool {
		k := file.Schema().Get(tp, 0)
		if prev, seen := lastPage[k]; seen && prev != pid {
			straddle, found = k, true
			return false
		}
		lastPage[k] = pid
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no key straddles a page boundary in the straddle relation")
	}
	return file, straddle
}

// TestConformanceScanStream asserts drained-Scanner ≡ slice-RangeScan ≡
// brute force on every backend variant, plus iterator hygiene: early
// Close mid-scan, double Close, and early termination reading fewer
// pages than the drain.
func TestConformanceScanStream(t *testing.T) {
	const n = 6000
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	for _, v := range scanVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			ix := buildVariant(t, v, file)
			defer ix.Close()

			for _, rng := range [][2]uint64{{0, 0}, {250, 400}, {maxKey - 50, maxKey + 500}, {0, maxKey}} {
				lo, hi := rng[0], rng[1]
				it, err := ix.Scan(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				streamed, err := index.Drain(it)
				if err != nil {
					t.Fatal(err)
				}
				sliced, err := ix.RangeScan(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want := goldenTuples(t, file, lo, hi)
				if !sameTuples(streamed.Tuples, want) {
					t.Fatalf("Drain(Scan[%d,%d]): %d tuples, want %d", lo, hi, len(streamed.Tuples), len(want))
				}
				if !sameTuples(streamed.Tuples, sliced.Tuples) {
					t.Fatalf("Drain(Scan[%d,%d]) and RangeScan disagree: %d vs %d tuples",
						lo, hi, len(streamed.Tuples), len(sliced.Tuples))
				}
				if streamed.Stats != sliced.Stats {
					t.Fatalf("Drain(Scan[%d,%d]) stats %+v != RangeScan stats %+v",
						lo, hi, streamed.Stats, sliced.Stats)
				}
				// Exact backends return key order; approximate ones only
				// promise each tuple once, which the multiset checks
				// above already pin.
				if b, _ := index.Lookup(backendOf(v)); !b.Approximate {
					if i := unsortedAt(file, streamed.Tuples); i >= 0 {
						t.Fatalf("Scan[%d,%d]: tuple %d breaks key order", lo, hi, i)
					}
					if i := unsortedAt(file, sliced.Tuples); i >= 0 {
						t.Fatalf("RangeScan[%d,%d]: tuple %d breaks key order", lo, hi, i)
					}
				}
			}

			// Early termination: pulling one tuple of the full range must
			// cost far fewer data pages than the drain, and the iterator's
			// running Stats must be monotonic.
			drained, err := ix.RangeScan(0, maxKey)
			if err != nil {
				t.Fatal(err)
			}
			it, err := ix.Scan(0, maxKey)
			if err != nil {
				t.Fatal(err)
			}
			if !it.Next() {
				t.Fatalf("Scan(0,%d).Next() = false on a loaded index (err %v)", maxKey, it.Err())
			}
			limited := it.Stats()
			if limited.DataPagesRead == 0 {
				t.Error("one pulled tuple charged no data page read")
			}
			if limited.DataPagesRead*4 > drained.Stats.DataPagesRead {
				t.Errorf("LIMIT-1 read %d data pages; drain reads %d — no early-termination savings",
					limited.DataPagesRead, drained.Stats.DataPagesRead)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("early Close: %v", err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("double Close: %v", err)
			}
			if it.Next() {
				t.Error("Next() = true after Close")
			}

			// A drained iterator closes cleanly too.
			it, err = ix.Scan(10, 20)
			if err != nil {
				t.Fatal(err)
			}
			for it.Next() {
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("Close after exhaustion: %v", err)
			}
		})
	}
}

// TestConformanceScanBoundaries pins RangeScan/Scan boundary semantics
// across every backend variant with one table: inverted ranges fail
// with ErrInvalidRange, empty and gap ranges answer empty, lo == hi
// answers exactly the key's duplicates, hi == MaxUint64 clamps, and
// duplicates straddling page (and hence run/leaf) boundaries are never
// cut short.
func TestConformanceScanBoundaries(t *testing.T) {
	const n = 6000
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5
	sfile, straddle := straddleRelation(t, n)

	cases := []struct {
		name   string
		lo, hi uint64
	}{
		{"single-key", 35, 35},
		{"gap-between-keys", 1, 4},
		{"past-domain", maxKey + 1000, maxKey + 2000},
		{"hi-maxuint", maxKey - 100, math.MaxUint64},
		{"full-domain", 0, math.MaxUint64},
	}
	straddleCases := []struct {
		name   string
		lo, hi uint64
	}{
		{"straddling-duplicates", straddle, straddle},
		{"straddle-window", straddle - 5, straddle + 5},
	}

	for _, v := range scanVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			ix := buildVariant(t, v, file)
			defer ix.Close()

			if _, err := ix.RangeScan(5, 0); !errors.Is(err, index.ErrInvalidRange) {
				t.Errorf("RangeScan(5,0): err = %v, want ErrInvalidRange", err)
			}
			if _, err := ix.Scan(5, 0); !errors.Is(err, index.ErrInvalidRange) {
				t.Errorf("Scan(5,0): err = %v, want ErrInvalidRange", err)
			}

			for _, tc := range cases {
				checkRange(t, ix, file, tc.name, tc.lo, tc.hi)
			}

			// Duplicates straddling page (and hence leaf/run) boundaries
			// live in their own relation; see straddleRelation.
			six := buildVariant(t, v, sfile)
			defer six.Close()
			for _, tc := range straddleCases {
				checkRange(t, six, sfile, tc.name, tc.lo, tc.hi)
			}
		})
	}
}

// checkRange asserts RangeScan and a drained Scan both answer the brute
// force tuple set for [lo, hi].
func checkRange(t *testing.T, ix index.Index, file *heapfile.File, name string, lo, hi uint64) {
	t.Helper()
	want := goldenTuples(t, file, lo, hi)
	sliced, err := ix.RangeScan(lo, hi)
	if err != nil {
		t.Fatalf("%s: RangeScan: %v", name, err)
	}
	if !sameTuples(sliced.Tuples, want) {
		t.Errorf("%s: RangeScan[%d,%d]: %d tuples, want %d",
			name, lo, hi, len(sliced.Tuples), len(want))
	}
	it, err := ix.Scan(lo, hi)
	if err != nil {
		t.Fatalf("%s: Scan: %v", name, err)
	}
	streamed, err := index.Drain(it)
	if err != nil {
		t.Fatalf("%s: Drain: %v", name, err)
	}
	if !sameTuples(streamed.Tuples, want) {
		t.Errorf("%s: Drain(Scan[%d,%d]): %d tuples, want %d",
			name, lo, hi, len(streamed.Tuples), len(want))
	}
}

// TestConformanceMultiSearch asserts a batch answers exactly the union
// of its per-key point lookups — duplicates in the batch collapsing,
// misses answering nothing — while the tree backends share index page
// reads across the batch.
func TestConformanceMultiSearch(t *testing.T) {
	const n = 6000
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	batch := []uint64{0, 35, 35, 7, 250, 500, 505, maxKey, maxKey + 1000, 40, 45}

	for _, v := range scanVariants() {
		v := v
		t.Run(v.name, func(t *testing.T) {
			ix := buildVariant(t, v, file)
			defer ix.Close()

			res, err := ix.MultiSearch(batch)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]byte
			seen := map[uint64]bool{}
			perKeyIdxReads := 0
			for _, k := range batch {
				if seen[k] {
					continue
				}
				seen[k] = true
				want = append(want, goldenTuples(t, file, k, k)...)
				single, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				perKeyIdxReads += single.Stats.IndexReads
			}
			if !sameTuples(res.Tuples, want) {
				t.Fatalf("MultiSearch: %d tuples, want %d", len(res.Tuples), len(want))
			}
			if res.Stats.IndexReads > perKeyIdxReads {
				t.Errorf("MultiSearch IndexReads %d exceeds %d per-key searches",
					res.Stats.IndexReads, perKeyIdxReads)
			}

			// Degenerate batches.
			empty, err := ix.MultiSearch(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(empty.Tuples) != 0 {
				t.Errorf("MultiSearch(nil): %d tuples, want 0", len(empty.Tuples))
			}
			miss, err := ix.MultiSearch([]uint64{1, 2, 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(miss.Tuples) != 0 {
				t.Errorf("MultiSearch(misses): %d tuples, want 0", len(miss.Tuples))
			}
		})
	}
}
