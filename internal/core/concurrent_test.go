package core

import (
	"bytes"
	"sort"
	"sync"
	"testing"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// concurrentWorkers is the degree of parallelism of the probe-hammer
// tests; the concurrency contract is "any number of concurrent readers",
// so the tests run well past typical core counts.
const concurrentWorkers = 8

// probeKeys picks a deterministic mix of present and absent keys.
func probeKeys(fx *fixture) []uint64 {
	var keys []uint64
	att1 := fx.syn.ATT1Keys
	step := len(att1) / 60
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(att1); i += step {
		keys = append(keys, att1[i])
	}
	maxKey := att1[len(att1)-1]
	for i := uint64(1); i <= 40; i++ {
		keys = append(keys, maxKey+i*7) // guaranteed misses
	}
	return keys
}

// flatten canonicalizes a probe result for equality comparison: tuple
// order within one probe is deterministic (ascending page order for
// plain scans, boundary-probe order for optimized ones), so a plain
// concatenation suffices — against a baseline of the same scan variant.
func flatten(res *Result) []byte {
	var out []byte
	for _, tup := range res.Tuples {
		out = append(out, tup...)
	}
	return out
}

// flattenSorted canonicalizes a result as a tuple multiset, for
// comparisons across scan variants with different emission orders.
func flattenSorted(res *Result) []byte {
	tuples := make([]string, len(res.Tuples))
	for i, tup := range res.Tuples {
		tuples[i] = string(tup)
	}
	sort.Strings(tuples)
	var out []byte
	for _, tup := range tuples {
		out = append(out, tup...)
	}
	return out
}

// concurrentFixture builds the ATT1 tree on an index store created by
// mkStore over a fresh memory device.
func concurrentFixture(t *testing.T, mkStore func(*device.Device) *pagestore.Store) (*fixture, *Tree) {
	t.Helper()
	fx := newFixture(t, 20000, 11)
	fx.idxStore = mkStore(device.New(device.Memory, 4096))
	tr := fx.build(t, 1, Options{FPP: 1e-3})
	return fx, tr
}

// runConcurrentSearch verifies Tree.Search under concurrentWorkers
// goroutines against the sequential baseline, and that I/O accounting
// stays consistent (every page access is counted exactly once).
func runConcurrentSearch(t *testing.T, cached bool) {
	mk := func(d *device.Device) *pagestore.Store { return pagestore.New(d) }
	if cached {
		mk = func(d *device.Device) *pagestore.Store { return pagestore.New(d, pagestore.WithCache(4096)) }
	}
	fx, tr := concurrentFixture(t, mk)
	keys := probeKeys(fx)

	// Sequential baseline: expected tuples per key, and the per-pass
	// index access count once the cache (if any) is at steady state.
	expected := make(map[uint64][]byte, len(keys))
	for _, k := range keys {
		res, err := tr.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		expected[k] = flatten(res)
	}
	h0, m0 := fx.idxStore.CacheStats()
	fx.idxStore.Device().ResetStats()
	for _, k := range keys {
		if _, err := tr.Search(k); err != nil {
			t.Fatal(err)
		}
	}
	h1, m1 := fx.idxStore.CacheStats()
	passAccesses := (h1 + m1) - (h0 + m0)
	passIdxReads := fx.idxStore.Device().Stats().Reads()
	if cached && m1 != m0 {
		t.Fatalf("steady-state pass missed %d times in a full-size cache", m1-m0)
	}
	if !cached && passIdxReads == 0 {
		t.Fatal("uncached baseline did no device reads")
	}

	fx.idxStore.Device().ResetStats()
	var wg sync.WaitGroup
	for w := 0; w < concurrentWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range keys {
				k := keys[(i+w)%len(keys)]
				res, err := tr.Search(k)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(flatten(res), expected[k]) {
					t.Errorf("key %d: concurrent result differs from sequential baseline", k)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if cached {
		h2, m2 := fx.idxStore.CacheStats()
		gotAccesses := (h2 + m2) - (h1 + m1)
		if want := passAccesses * concurrentWorkers; gotAccesses != want {
			t.Errorf("concurrent phase recorded %d cache accesses, want %d (= %d workers × %d)",
				gotAccesses, want, concurrentWorkers, passAccesses)
		}
		if m2 != m1 {
			t.Errorf("concurrent phase missed %d times in a fully warm cache", m2-m1)
		}
	} else {
		got := fx.idxStore.Device().Stats().Reads()
		if want := passIdxReads * concurrentWorkers; got != want {
			t.Errorf("concurrent phase did %d index device reads, want %d (= %d workers × %d)",
				got, want, concurrentWorkers, passIdxReads)
		}
	}
}

func TestConcurrentSearchUncached(t *testing.T) { runConcurrentSearch(t, false) }
func TestConcurrentSearchCached(t *testing.T)   { runConcurrentSearch(t, true) }

// runConcurrentRangeScan verifies RangeScan (and the optimized variant)
// under concurrency against the sequential baseline.
func runConcurrentRangeScan(t *testing.T, cached bool) {
	mk := func(d *device.Device) *pagestore.Store { return pagestore.New(d) }
	if cached {
		mk = func(d *device.Device) *pagestore.Store { return pagestore.New(d, pagestore.WithCache(4096)) }
	}
	fx, tr := concurrentFixture(t, mk)

	att1 := fx.syn.ATT1Keys
	type span struct{ lo, hi uint64 }
	var spans []span
	width := (att1[len(att1)-1] - att1[0]) / 16
	if width == 0 {
		width = 1
	}
	for i := 0; i < 12; i++ {
		lo := att1[0] + uint64(i)*width
		spans = append(spans, span{lo: lo, hi: lo + width/3})
	}

	expected := make([][]byte, len(spans))
	expectedOpt := make([][]byte, len(spans))
	for i, sp := range spans {
		res, err := tr.RangeScan(sp.lo, sp.hi)
		if err != nil {
			t.Fatal(err)
		}
		expected[i] = flatten(res)
		opt, err := tr.RangeScanOptimized(sp.lo, sp.hi)
		if err != nil {
			t.Fatal(err)
		}
		expectedOpt[i] = flatten(opt)
		// The optimized cursor probes boundary keys lazily, so its
		// emission order differs from the plain scan's page order; the
		// tuple multiset must still match exactly.
		if !bytes.Equal(flattenSorted(res), flattenSorted(opt)) {
			t.Fatalf("span %d: optimized scan differs from plain scan as a multiset", i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrentWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range spans {
				sp := spans[(i+w)%len(spans)]
				var want []byte
				var res *Result
				var err error
				if w%2 == 0 {
					want = expected[(i+w)%len(spans)]
					res, err = tr.RangeScan(sp.lo, sp.hi)
				} else {
					want = expectedOpt[(i+w)%len(spans)]
					res, err = tr.RangeScanOptimized(sp.lo, sp.hi)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(flatten(res), want) {
					t.Errorf("span [%d,%d]: concurrent scan differs from baseline", sp.lo, sp.hi)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentRangeScanUncached(t *testing.T) { runConcurrentRangeScan(t, false) }
func TestConcurrentRangeScanCached(t *testing.T)   { runConcurrentRangeScan(t, true) }

// TestConcurrentMixedProbes runs point probes, range scans and
// candidate-page intersections together — the full read-path surface —
// under the race detector.
func TestConcurrentMixedProbes(t *testing.T) {
	fx, tr := concurrentFixture(t, func(d *device.Device) *pagestore.Store {
		return pagestore.New(d, pagestore.WithCache(512))
	})
	keys := probeKeys(fx)
	var wg sync.WaitGroup
	for w := 0; w < concurrentWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := keys[(i*7+w)%len(keys)]
				switch (i + w) % 3 {
				case 0:
					if _, err := tr.Search(k); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := tr.SearchFirst(k); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := tr.RangeScan(k, k+50); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
