package index_test

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// The conformance suite is the unified API's contract made executable:
// the same golden relation is bulk-loaded into every registered backend
// through index.New, and point lookups, range scans and (where the
// capability interfaces exist) insert/delete round-trips must agree
// with a brute-force scan of the data. The BF-Tree participates on
// equal terms for result sets — its approximation costs false-positive
// page reads, never wrong tuples — with the one documented exception of
// deleted associations, where its answer may remain a superset of the
// exact backends' (standard filters cannot unset bits; counting-filter
// collisions can still flag a page holding the physically present
// tuple).

// goldenRelation builds an ordered relation with duplicate keys: key
// step 5, three tuples per key, payload = ordinal.
func goldenRelation(t *testing.T, n int) (*heapfile.File, *pagestore.Store) {
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
		binary.BigEndian.PutUint64(tup[0:8], uint64(i/3)*5)
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

// goldenTuples brute-force scans the file for every tuple with field 0
// in [lo, hi].
func goldenTuples(t *testing.T, file *heapfile.File, lo, hi uint64) [][]byte {
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

// tupleSet canonicalizes a tuple list for multiset comparison.
func tupleSet(tuples [][]byte) []string {
	out := make([]string, len(tuples))
	for i, tup := range tuples {
		out[i] = string(tup)
	}
	sort.Strings(out)
	return out
}

func sameTuples(a, b [][]byte) bool {
	as, bs := tupleSet(a), tupleSet(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// refsOf returns the (page, slot) references of every tuple with the
// given key, for insert/delete round-trips.
func refsOf(t *testing.T, file *heapfile.File, key uint64) []index.Ref {
	t.Helper()
	var refs []index.Ref
	err := file.Scan(func(pid device.PageID, slot int, tup []byte) bool {
		if file.Schema().Get(tup, 0) == key {
			refs = append(refs, index.Ref{Page: pid, Slot: uint16(slot)})
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestConformance(t *testing.T) {
	const n = 6000 // 2000 distinct keys 0,5,...,9995; 3 tuples each
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	for _, name := range index.Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			idxStore := pagestore.New(device.New(device.Memory, 4096))
			ix, err := index.New(name, idxStore, file, 0, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			st := ix.Stats()
			if st.Backend != name {
				t.Errorf("Stats().Backend = %q, want %q", st.Backend, name)
			}
			if st.Entries == 0 {
				t.Error("Stats().Entries = 0 on a loaded index")
			}

			// Point lookups: hits on every 97th key, misses between
			// keys and beyond the domain. Identical tuples everywhere.
			for k := uint64(0); k <= maxKey; k += 5 * 97 {
				res, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				want := goldenTuples(t, file, k, k)
				if !sameTuples(res.Tuples, want) {
					t.Fatalf("Search(%d): %d tuples, want %d", k, len(res.Tuples), len(want))
				}
				// SearchFirst stops early: at least one match, never more
				// than the full answer (the BF-Tree returns the first
				// matching page's tuples, exact backends the first tuple).
				first, err := ix.SearchFirst(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(first.Tuples) < 1 || len(first.Tuples) > len(want) {
					t.Fatalf("SearchFirst(%d): %d tuples, want 1..%d", k, len(first.Tuples), len(want))
				}
			}
			for _, k := range []uint64{1, 7, maxKey - 2, maxKey + 1000} {
				res, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Tuples) != 0 {
					t.Fatalf("Search(miss %d): %d tuples, want 0", k, len(res.Tuples))
				}
			}

			// Range scans, including empty, single-key, key-straddling
			// and clamped-past-the-end ranges.
			for _, rng := range [][2]uint64{{0, 0}, {1, 4}, {250, 400}, {maxKey - 50, maxKey + 500}, {0, maxKey}} {
				lo, hi := rng[0], rng[1]
				res, err := ix.RangeScan(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want := goldenTuples(t, file, lo, hi)
				if !sameTuples(res.Tuples, want) {
					t.Fatalf("RangeScan[%d,%d]: %d tuples, want %d", lo, hi, len(res.Tuples), len(want))
				}
			}

			// Insert round-trip: duplicate associations of existing
			// tuples (enough to force structural changes) must leave
			// every lookup's tuple set unchanged.
			for k := uint64(0); k <= maxKey; k += 5 * 3 {
				for _, ref := range refsOf(t, file, k)[:1] {
					if err := ix.Insert(k, ref); err != nil {
						t.Fatalf("Insert(%d, %v): %v", k, ref, err)
					}
				}
			}
			if fl, ok := ix.(index.Flusher); ok {
				if err := fl.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			for k := uint64(0); k <= maxKey; k += 5 * 41 {
				res, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				want := goldenTuples(t, file, k, k)
				if !sameTuples(res.Tuples, want) {
					t.Fatalf("post-insert Search(%d): %d tuples, want %d", k, len(res.Tuples), len(want))
				}
			}

			// Delete round-trip where the backend deletes: remove
			// every association of a key, then re-insert them. Exact
			// backends must answer empty in between; the BF-Tree may
			// still find the physically present tuples (superset). After
			// re-insert everyone answers golden again.
			if del, ok := ix.(index.Deleter); ok {
				const victim = uint64(500)
				refs := refsOf(t, file, victim)
				golden := goldenTuples(t, file, victim, victim)
				for _, ref := range refs {
					if err := del.Delete(victim, ref); err != nil {
						t.Fatalf("Delete(%d, %v): %v", victim, ref, err)
					}
				}
				res, err := ix.Search(victim)
				if err != nil {
					t.Fatal(err)
				}
				backend, _ := index.Lookup(name)
				if backend.Approximate {
					if len(res.Tuples) > len(golden) {
						t.Fatalf("post-delete Search(%d): %d tuples exceeds physical %d", victim, len(res.Tuples), len(golden))
					}
				} else if len(res.Tuples) != 0 {
					t.Fatalf("post-delete Search(%d): %d tuples, want 0", victim, len(res.Tuples))
				}
				for _, ref := range refs {
					if err := ix.Insert(victim, ref); err != nil {
						t.Fatalf("re-Insert(%d, %v): %v", victim, ref, err)
					}
				}
				res, err = ix.Search(victim)
				if err != nil {
					t.Fatal(err)
				}
				if !sameTuples(res.Tuples, golden) {
					t.Fatalf("post-reinsert Search(%d): %d tuples, want %d", victim, len(res.Tuples), len(golden))
				}
			}

			// Persistence round-trip where implemented: marshal, reopen
			// through the registry, re-verify a lookup.
			if p, ok := ix.(index.Persister); ok {
				reopened, err := index.Open(name, idxStore, file, p.MarshalMeta())
				if err != nil {
					t.Fatal(err)
				}
				defer reopened.Close()
				res, err := reopened.Search(250)
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenTuples(t, file, 250, 250); !sameTuples(res.Tuples, want) {
					t.Fatalf("reopened Search(250): %d tuples, want %d", len(res.Tuples), len(want))
				}
			} else if _, err := index.Open(name, idxStore, file, nil); !errors.Is(err, index.ErrUnsupported) {
				t.Errorf("Open on non-persistent backend: err = %v, want ErrUnsupported", err)
			}
		})
	}
}

// TestConformanceConcurrent is the contract of DESIGN.md §3 at the
// unified-API layer: every backend must serve 8 concurrent probers
// (point lookups, batched probes, streaming scans per its
// capabilities), and backends advertising ConcurrentWriters must keep
// serving them while capability writers churn delete/re-insert rounds
// of real associations. Under churn an answer may shrink but never
// exceeds the physical association count, and after the writers drain
// every sampled lookup answers golden again. Run with -race.
func TestConformanceConcurrent(t *testing.T) {
	const n = 3000 // 1000 distinct keys, 3 tuples each
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	for _, name := range index.Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			backend, _ := index.Lookup(name)
			idxStore := pagestore.New(device.New(device.Memory, 4096))
			ix, err := index.New(name, idxStore, file, 0, index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			// Writer key slices: every 13th key, refs resolved up front so
			// the churn loop touches only the index.
			var churnKeys []uint64
			refs := map[uint64][]index.Ref{}
			if backend.ConcurrentWriters {
				for k := uint64(0); k <= maxKey; k += 5 * 13 {
					churnKeys = append(churnKeys, k)
					refs[k] = refsOf(t, file, k)
				}
			}

			const writers, probers, rounds = 4, 8, 25
			var wg sync.WaitGroup
			errCh := make(chan error, writers+probers)

			if backend.ConcurrentWriters {
				del := ix.(index.Deleter)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							// Disjoint key slices per writer: the §3 contract
							// serializes writers per association, not globally.
							for i := w; i < len(churnKeys); i += writers {
								k := churnKeys[i]
								for _, ref := range refs[k] {
									if err := del.Delete(k, ref); err != nil {
										errCh <- err
										return
									}
								}
								for _, ref := range refs[k] {
									if err := ix.Insert(k, ref); err != nil {
										errCh <- err
										return
									}
								}
							}
						}
					}(w)
				}
			}

			for p := 0; p < probers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						k := (uint64(p*31+r*7) % (maxKey / 5)) * 5
						res, err := ix.Search(k)
						if err != nil {
							errCh <- err
							return
						}
						if len(res.Tuples) > 3 {
							t.Errorf("Search(%d) under churn: %d tuples exceeds physical 3", k, len(res.Tuples))
							return
						}
						if _, err := ix.MultiSearch([]uint64{k, k + 5, k + 150}); err != nil {
							errCh <- err
							return
						}
						it, err := ix.Scan(k, k+100)
						if err != nil {
							errCh <- err
							return
						}
						for s := 0; it.Next() && s < 32; s++ {
						}
						err = it.Err()
						it.Close()
						if err != nil {
							errCh <- err
							return
						}
					}
				}(p)
			}

			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			// Post-churn: delete/re-insert round-trips must have restored
			// golden answers (sampled; full equality for every backend,
			// approximate included — re-insert repopulates the filters).
			for k := uint64(0); k <= maxKey; k += 5 * 29 {
				res, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenTuples(t, file, k, k); !sameTuples(res.Tuples, want) {
					t.Fatalf("post-churn Search(%d): %d tuples, want %d", k, len(res.Tuples), len(want))
				}
			}
		})
	}
}

// TestConformanceDedupLayout runs the point/range checks again for the
// tree backends in the paper's deduplicated layout for ordered
// non-unique attributes, where probes must chase duplicates through the
// ordered data instead of per-tuple entries.
func TestConformanceDedupLayout(t *testing.T) {
	const n = 6000
	file, _ := goldenRelation(t, n)
	maxKey := uint64(n/3-1) * 5

	for _, name := range []string{"bptree", "fdtree"} {
		name := name
		t.Run(name, func(t *testing.T) {
			idxStore := pagestore.New(device.New(device.Memory, 4096))
			ix, err := index.New(name, idxStore, file, 0, index.Options{DedupKeys: true})
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for k := uint64(0); k <= maxKey; k += 5 * 89 {
				res, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenTuples(t, file, k, k); !sameTuples(res.Tuples, want) {
					t.Fatalf("dedup Search(%d): %d tuples, want %d", k, len(res.Tuples), len(want))
				}
			}
			for _, rng := range [][2]uint64{{35, 35}, {120, 345}, {maxKey - 20, maxKey}} {
				res, err := ix.RangeScan(rng[0], rng[1])
				if err != nil {
					t.Fatal(err)
				}
				if want := goldenTuples(t, file, rng[0], rng[1]); !sameTuples(res.Tuples, want) {
					t.Fatalf("dedup RangeScan[%d,%d]: %d tuples, want %d", rng[0], rng[1], len(res.Tuples), len(want))
				}
			}
		})
	}
}

// TestCapabilityMatrix pins DESIGN.md §5's table: which backend
// implements which optional interface. Scanner, MultiSearcher and
// Inserter are part of index.Index, so the compiler checks those.
func TestCapabilityMatrix(t *testing.T) {
	file, _ := goldenRelation(t, 300)
	matrix := map[string]map[string]bool{
		"bftree":   {"Deleter": true, "Flusher": false, "Persister": true, "Maintainer": true, "Warmable": true},
		"bfforest": {"Deleter": true, "Flusher": false, "Persister": true, "Maintainer": true, "Warmable": true},
		"bptree":   {"Deleter": false, "Flusher": false, "Persister": false, "Maintainer": false, "Warmable": true},
		"fdtree":   {"Deleter": false, "Flusher": true, "Persister": false, "Maintainer": false, "Warmable": false},
		"hash":     {"Deleter": true, "Flusher": false, "Persister": false, "Maintainer": false, "Warmable": false},
	}
	for _, name := range index.Backends() {
		want, known := matrix[name]
		if !known {
			t.Errorf("backend %q not in the capability matrix; update DESIGN.md §5 and this test", name)
			continue
		}
		idxStore := pagestore.New(device.New(device.Memory, 4096))
		ix, err := index.New(name, idxStore, file, 0, index.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		_, got["Deleter"] = ix.(index.Deleter)
		_, got["Flusher"] = ix.(index.Flusher)
		_, got["Persister"] = ix.(index.Persister)
		_, got["Maintainer"] = ix.(index.Maintainer)
		_, got["Warmable"] = ix.(index.Warmable)
		for capability, w := range want {
			if got[capability] != w {
				t.Errorf("%s: %s = %v, want %v", name, capability, got[capability], w)
			}
		}
		ix.Close()
	}
	// The buffered BF-Tree mode adds Flusher and withholds Persister: a
	// marshal would silently drop unflushed buffered inserts.
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	ix, err := index.New("bftree", idxStore, file, 0, index.Options{BufferedInserts: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if _, ok := ix.(index.Flusher); !ok {
		t.Error("buffered bftree mode does not implement Flusher")
	}
	if _, ok := ix.(index.Persister); ok {
		t.Error("buffered bftree mode must not implement Persister (buffered inserts would be lost)")
	}
	// Delete accounts for the buffer: a just-buffered association is
	// deletable without an explicit Flush.
	ref := refsOf(t, file, 35)[0]
	if err := ix.Insert(35, ref); err != nil {
		t.Fatal(err)
	}
	if err := ix.(index.Deleter).Delete(35, ref); err != nil {
		t.Fatalf("Delete of a buffered association: %v", err)
	}
}
