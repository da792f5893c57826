package forest_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/forest"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// buildRelation writes an ordered relation with `dups` tuples per key
// (key step 5, payload = ordinal). dups is chosen by callers to not
// divide the page capacity, so duplicate runs straddle page boundaries
// — and hence partition cuts, whose separators are page minimums.
func buildRelation(t testing.TB, n, dups int) (*heapfile.File, *pagestore.Store) {
	t.Helper()
	schema := heapfile.Schema{
		TupleSize: 64,
		Fields:    []heapfile.Field{{Name: "key", Offset: 0}, {Name: "seq", Offset: 8}},
	}
	store := pagestore.New(device.New(device.Memory, 4096))
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
	return file, store
}

// brute returns every tuple with field 0 in [lo, hi], by file scan.
func brute(t *testing.T, file *heapfile.File, lo, hi uint64) [][]byte {
	t.Helper()
	var out [][]byte
	err := file.Scan(func(_ device.PageID, _ int, tup []byte) bool {
		if k := file.Schema().Get(tup, 0); k >= lo && k <= hi {
			cp := make([]byte, len(tup))
			copy(cp, tup)
			out = append(out, cp)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameTuples compares two tuple lists as multisets — the forest's
// exactly-once guarantee is per association, so a duplicate emission or
// a dropped association both fail here.
func sameTuples(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = string(a[i]), string(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func buildForest(t testing.TB, file *heapfile.File, shards int) (*forest.Forest, *pagestore.Store) {
	t.Helper()
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	f, err := forest.New(idxStore, file, 0, forest.Options{
		Shards: shards,
		Tree:   core.Options{FPP: 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f, idxStore
}

// TestForestBuild pins shard construction: the requested count (modulo
// range clamping), disjoint key ownership (NumKeys summing to the
// relation's distinct count), and per-shard maintainers under auto
// maintenance.
func TestForestBuild(t *testing.T) {
	const n, dups = 6000, 7
	file, _ := buildRelation(t, n, dups)
	distinct := uint64((n + dups - 1) / dups)

	t.Run("range", func(t *testing.T) {
		f, _ := buildForest(t, file, 4)
		defer f.Close()
		if f.NumShards() != 4 {
			t.Fatalf("NumShards = %d, want 4", f.NumShards())
		}
		if got := f.NumKeys(); got != distinct {
			t.Errorf("NumKeys = %d, want %d (shards must partition keys disjointly)", got, distinct)
		}
		if f.Height() < 1 || f.NumNodes() == 0 || f.SizeBytes() == 0 {
			t.Errorf("degenerate aggregate stats: height %d, nodes %d, bytes %d",
				f.Height(), f.NumNodes(), f.SizeBytes())
		}
		seps := f.Separators()
		if len(seps) != f.NumShards()-1 {
			t.Fatalf("%d separators for %d shards", len(seps), f.NumShards())
		}
		for i := 1; i < len(seps); i++ {
			if seps[i] <= seps[i-1] {
				t.Fatalf("separators not strictly increasing: %v", seps)
			}
		}
	})
}

// TestForestSearch asserts point lookups and MultiSearch agree with
// brute force — hits, misses, and batches mixing both.
func TestForestSearch(t *testing.T) {
	const n, dups = 6000, 7
	file, _ := buildRelation(t, n, dups)
	maxKey := uint64((n-1)/dups) * 5

	t.Run("range", func(t *testing.T) {
		f, _ := buildForest(t, file, 4)
		defer f.Close()
		for key := uint64(0); key <= maxKey; key += 5 * 53 {
			res, err := f.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(t, file, key, key); !sameTuples(res.Tuples, want) {
				t.Fatalf("Search(%d): %d tuples, want %d", key, len(res.Tuples), len(want))
			}
			first, err := f.SearchFirst(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Tuples) == 0 {
				t.Fatalf("SearchFirst(%d): empty on a hit", key)
			}
		}
		for _, key := range []uint64{1, 7, maxKey + 1000} {
			res, err := f.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != 0 {
				t.Fatalf("Search(miss %d): %d tuples", key, len(res.Tuples))
			}
		}

		batch := []uint64{0, 35, 35, 7, 250, maxKey, maxKey + 1000}
		res, err := f.MultiSearch(batch)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		seen := map[uint64]bool{}
		for _, key := range batch {
			if !seen[key] {
				seen[key] = true
				want = append(want, brute(t, file, key, key)...)
			}
		}
		if !sameTuples(res.Tuples, want) {
			t.Fatalf("MultiSearch: %d tuples, want %d", len(res.Tuples), len(want))
		}
	})
}

// TestForestCrossShardBoundaries is the partition-boundary contract:
// duplicate runs straddle data pages (dups ∤ page capacity), and range
// separators are page minimums, so some key's associations physically
// sit on pages covered by two adjacent shards' leaves. Scan and
// MultiSearch must still emit each association exactly once — at the
// separators themselves, one key either side, and across the whole
// domain.
func TestForestCrossShardBoundaries(t *testing.T) {
	const n, dups = 6000, 7
	file, _ := buildRelation(t, n, dups)

	t.Run("range", func(t *testing.T) {
		f, _ := buildForest(t, file, 4)
		defer f.Close()

		// Boundary keys: the separators and one key either side.
		var boundary []uint64
		for _, sep := range f.Separators() {
			boundary = append(boundary, sep)
			if sep >= 5 {
				boundary = append(boundary, sep-5)
			}
			boundary = append(boundary, sep+5)
		}

		for _, key := range boundary {
			want := brute(t, file, key, key)
			res, err := f.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(res.Tuples, want) {
				t.Errorf("Search(boundary %d): %d tuples, want %d", key, len(res.Tuples), len(want))
			}
			scanned, err := f.RangeScan(key, key)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(scanned.Tuples, want) {
				t.Errorf("RangeScan(boundary %d): %d tuples, want %d (straddling dups must appear exactly once)",
					key, len(scanned.Tuples), len(want))
			}
			if wlo := key - 10; key >= 10 {
				win, err := f.RangeScan(wlo, key+10)
				if err != nil {
					t.Fatal(err)
				}
				if want := brute(t, file, wlo, key+10); !sameTuples(win.Tuples, want) {
					t.Errorf("RangeScan[%d,%d]: %d tuples, want %d", wlo, key+10, len(win.Tuples), len(want))
				}
			}
		}

		res, err := f.MultiSearch(boundary)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		seen := map[uint64]bool{}
		for _, key := range boundary {
			if !seen[key] {
				seen[key] = true
				want = append(want, brute(t, file, key, key)...)
			}
		}
		if !sameTuples(res.Tuples, want) {
			t.Fatalf("MultiSearch(boundaries): %d tuples, want %d", len(res.Tuples), len(want))
		}

		full, err := f.RangeScan(0, math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(t, file, 0, math.MaxUint64); !sameTuples(full.Tuples, want) {
			t.Fatalf("full-domain scan: %d tuples, want %d", len(full.Tuples), len(want))
		}
	})
}

// TestForestScanOrder pins that shards are chained in key order: a
// full-domain scan, which covers every leaf whole, comes out in
// nondecreasing key order across shard boundaries.
func TestForestScanOrder(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)

	t.Run("range", func(t *testing.T) {
		f, _ := buildForest(t, file, 4)
		defer f.Close()
		it, err := f.Scan(0, math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		prev := uint64(0)
		for it.Next() {
			key := file.Schema().Get(it.Tuple(), 0)
			if key < prev {
				t.Fatalf("scan regressed: %d after %d", key, prev)
			}
			prev = key
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForestLazyShardOpen pins the chained scan's LIMIT-k shape: pulling
// one tuple of a full-domain scan must not charge pages from shards
// past the first.
func TestForestLazyShardOpen(t *testing.T) {
	const n, dups = 6000, 7
	file, _ := buildRelation(t, n, dups)
	f, _ := buildForest(t, file, 4)
	defer f.Close()

	drained, err := f.RangeScan(0, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	it, err := f.Scan(0, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatalf("Next() = false on a loaded forest (err %v)", it.Err())
	}
	limited := it.Stats()
	if limited.DataPagesRead == 0 {
		t.Error("one pulled tuple charged no data page read")
	}
	if limited.DataPagesRead*4 > drained.Stats.DataPagesRead {
		t.Errorf("LIMIT-1 read %d data pages, drain %d — lazy shard chaining lost",
			limited.DataPagesRead, drained.Stats.DataPagesRead)
	}
}

// TestForestInsertDelete exercises routed writes: re-inserting existing
// associations (including at range boundaries) leaves every answer
// unchanged, deleting a key's associations empties (or at least never
// grows) its answer, and re-inserting restores it.
func TestForestInsertDelete(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)
	maxKey := uint64((n-1)/dups) * 5

	t.Run("range", func(t *testing.T) {
		f, _ := buildForest(t, file, 4)
		defer f.Close()

		pageOf := func(key uint64) []device.PageID {
			var pids []device.PageID
			err := file.Scan(func(pid device.PageID, _ int, tup []byte) bool {
				if file.Schema().Get(tup, 0) == key {
					if len(pids) == 0 || pids[len(pids)-1] != pid {
						pids = append(pids, pid)
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return pids
		}

		for key := uint64(0); key <= maxKey; key += 5 * 17 {
			for _, pid := range pageOf(key) {
				if err := f.Insert(key, pid); err != nil {
					t.Fatalf("Insert(%d, %d): %v", key, pid, err)
				}
			}
		}
		for key := uint64(0); key <= maxKey; key += 5 * 17 {
			res, err := f.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(t, file, key, key); !sameTuples(res.Tuples, want) {
				t.Fatalf("post-insert Search(%d): %d tuples, want %d", key, len(res.Tuples), len(want))
			}
		}

		const victim = uint64(500)
		golden := brute(t, file, victim, victim)
		for _, pid := range pageOf(victim) {
			if err := f.Delete(victim, pid); err != nil {
				t.Fatalf("Delete(%d, %d): %v", victim, pid, err)
			}
		}
		res, err := f.Search(victim)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) > len(golden) {
			t.Fatalf("post-delete Search(%d): %d tuples exceeds physical %d", victim, len(res.Tuples), len(golden))
		}
		for _, pid := range pageOf(victim) {
			if err := f.Insert(victim, pid); err != nil {
				t.Fatal(err)
			}
		}
		res, err = f.Search(victim)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTuples(res.Tuples, golden) {
			t.Fatalf("post-reinsert Search(%d): %d tuples, want %d", victim, len(res.Tuples), len(golden))
		}
	})
}

// TestForestPersistence round-trips MarshalMeta/Open on the same store,
// checking searches, scans and the reconstructed partitioning (shard
// count, separators).
func TestForestPersistence(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)
	maxKey := uint64((n-1)/dups) * 5

	t.Run("range", func(t *testing.T) {
		f, idxStore := buildForest(t, file, 4)
		blob := f.MarshalMeta()
		seps := f.Separators()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		g, err := forest.Open(idxStore, file, blob)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if g.NumShards() != 4 {
			t.Fatalf("reopened %d shards, want 4", g.NumShards())
		}
		reSeps := g.Separators()
		if len(reSeps) != len(seps) {
			t.Fatalf("reopened %d separators, want %d", len(reSeps), len(seps))
		}
		for i := range seps {
			if reSeps[i] != seps[i] {
				t.Fatalf("separator %d: %d != %d", i, reSeps[i], seps[i])
			}
		}
		for key := uint64(0); key <= maxKey; key += 5 * 31 {
			res, err := g.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			if want := brute(t, file, key, key); !sameTuples(res.Tuples, want) {
				t.Fatalf("reopened Search(%d): %d tuples, want %d", key, len(res.Tuples), len(want))
			}
		}
		full, err := g.RangeScan(0, maxKey)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(t, file, 0, maxKey); !sameTuples(full.Tuples, want) {
			t.Fatalf("reopened scan: %d tuples, want %d", len(full.Tuples), len(want))
		}

		// Corrupt blobs fail loudly instead of misrouting.
		if _, err := forest.Open(idxStore, file, blob[:8]); err == nil {
			t.Error("Open(truncated blob) succeeded")
		}
		if _, err := forest.Open(idxStore, file, []byte("XXXX")); err == nil {
			t.Error("Open(bad magic) succeeded")
		}
	})
}

// TestEmptyPartition pins the sentinel shard: a partition owning no
// keys builds, answers everything empty, and accepts inserts later —
// the forest depends on this when a skewed distribution starves a
// shard.
func TestEmptyPartition(t *testing.T) {
	const n, dups = 1000, 4
	file, _ := buildRelation(t, n, dups)
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	maxKey := uint64((n-1)/dups) * 5

	// All the relation's keys are ≤ maxKey; this shard owns none.
	part := &core.Partition{KeyLo: maxKey + 1000, KeyHi: ^uint64(0)}
	tr, err := core.BulkLoadPartition(idxStore, file, 0, core.Options{FPP: 1e-3}, part)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	if tr.NumKeys() != 0 {
		t.Fatalf("empty partition has %d keys", tr.NumKeys())
	}
	res, err := tr.Search(maxKey + 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatalf("empty partition answered %d tuples", len(res.Tuples))
	}
	rs, err := tr.RangeScan(0, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Tuples) != 0 {
		t.Fatalf("empty partition scanned %d tuples", len(rs.Tuples))
	}

	// An append lands in the sentinel leaf's territory and is found.
	lastPid := file.FirstPage() + device.PageID(file.NumPages()-1)
	if err := tr.Insert(maxKey+2000, lastPid); err != nil {
		t.Fatalf("Insert into empty partition: %v", err)
	}
	res, err = tr.Search(maxKey + 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CandidatePages == 0 {
		t.Error("insert into empty partition left no candidate pages")
	}
}

// TestForestMaintenance checks aggregation: Maintain passes count
// across shards and limbo drains at quiescence.
func TestForestMaintenance(t *testing.T) {
	const n, dups = 4000, 7
	file, _ := buildRelation(t, n, dups)
	f, _ := buildForest(t, file, 4)
	defer f.Close()

	if err := f.Maintain(); err != nil {
		t.Fatal(err)
	}
	stats := f.MaintenanceStats()
	if stats.Passes < uint64(f.NumShards()) {
		t.Errorf("aggregate Passes = %d after one forest Maintain over %d shards", stats.Passes, f.NumShards())
	}
	if stats.LimboPages != 0 {
		t.Errorf("LimboPages = %d on an untouched forest", stats.LimboPages)
	}
}
