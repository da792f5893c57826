package index_test

import (
	"testing"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// costPin is the pinned outcome of one probe: how many tuples it
// returned and everything it charged.
type costPin struct {
	Tuples int
	Stats  index.ProbeStats
}

// TestExactBackendCosts pins the answers and the costs of the exact
// backends — bptree and fdtree in both layouts (one entry per tuple,
// and one per distinct key), plus hash — as literal numbers on the
// golden relation. The conformance suite only compares one backend's
// paths with each other, so a change to the shared fetch path that
// shifted every path's accounting alike would still pass it; this test
// would not.
//
// The golden relation holds 63 tuples (21 keys) per data page, so key
// 100 is the last key of page 0 and 105 the first of page 1; 205 ends
// page 1. A probe of a key that ends a page shows whether an ordered
// scan over the one-entry-per-key layout reads the next page.
func TestExactBackendCosts(t *testing.T) {
	file, _ := goldenRelation(t, 6000)
	drain := func(it index.Iterator, limit int) (*index.Result, error) {
		defer it.Close()
		res := &index.Result{}
		for len(res.Tuples) < limit && it.Next() {
			res.Tuples = append(res.Tuples, it.Tuple())
		}
		res.Stats = it.Stats()
		return res, it.Err()
	}
	probes := []struct {
		name string
		run  func(index.Index) (*index.Result, error)
	}{
		{"search-page-end", func(ix index.Index) (*index.Result, error) { return ix.Search(100) }},
		{"search-mid-page", func(ix index.Index) (*index.Result, error) { return ix.Search(505) }},
		{"search-miss", func(ix index.Index) (*index.Result, error) { return ix.Search(502) }},
		{"first", func(ix index.Index) (*index.Result, error) { return ix.SearchFirst(505) }},
		{"multi", func(ix index.Index) (*index.Result, error) {
			return ix.MultiSearch([]uint64{505, 100, 105, 9995, 502, 100, 205})
		}},
		{"scan-limit-70", func(ix index.Index) (*index.Result, error) {
			it, err := ix.Scan(95, 2000)
			if err != nil {
				return nil, err
			}
			return drain(it, 70)
		}},
		{"range", func(ix index.Index) (*index.Result, error) { return ix.RangeScan(98, 205) }},
	}
	want := map[string]map[string]costPin{
		"bptree": {
			"search-page-end": {3, index.ProbeStats{IndexReads: 2, DataPagesRead: 1}},
			"search-mid-page": {3, index.ProbeStats{IndexReads: 2, DataPagesRead: 1}},
			"search-miss":     {0, index.ProbeStats{IndexReads: 2}},
			"first":           {1, index.ProbeStats{IndexReads: 2, DataPagesRead: 1}},
			"multi":           {15, index.ProbeStats{IndexReads: 4, DataPagesRead: 4}},
			"scan-limit-70":   {70, index.ProbeStats{IndexReads: 2, DataPagesRead: 3}},
			"range":           {66, index.ProbeStats{IndexReads: 2, DataPagesRead: 2}},
		},
		"bptree-dedup": {
			"search-page-end": {3, index.ProbeStats{IndexReads: 2, DataPagesRead: 2, FalseReads: 1}},
			"search-mid-page": {3, index.ProbeStats{IndexReads: 2, DataPagesRead: 1}},
			"search-miss":     {0, index.ProbeStats{IndexReads: 2}},
			"first":           {1, index.ProbeStats{IndexReads: 2, DataPagesRead: 1}},
			"multi":           {15, index.ProbeStats{IndexReads: 3, DataPagesRead: 5, FalseReads: 2}},
			"scan-limit-70":   {70, index.ProbeStats{IndexReads: 2, DataPagesRead: 3}},
			"range":           {66, index.ProbeStats{IndexReads: 2, DataPagesRead: 3, FalseReads: 1}},
		},
		"fdtree": {
			"search-page-end": {3, index.ProbeStats{IndexReads: 1, DataPagesRead: 1}},
			"search-mid-page": {3, index.ProbeStats{IndexReads: 1, DataPagesRead: 1}},
			"search-miss":     {0, index.ProbeStats{IndexReads: 1}},
			"first":           {1, index.ProbeStats{IndexReads: 1, DataPagesRead: 1}},
			"multi":           {15, index.ProbeStats{IndexReads: 3, DataPagesRead: 4}},
			"scan-limit-70":   {70, index.ProbeStats{IndexReads: 6, DataPagesRead: 3}},
			"range":           {66, index.ProbeStats{IndexReads: 6, DataPagesRead: 2}},
		},
		"fdtree-dedup": {
			"search-page-end": {3, index.ProbeStats{IndexReads: 1, DataPagesRead: 2, FalseReads: 1}},
			"search-mid-page": {3, index.ProbeStats{IndexReads: 1, DataPagesRead: 1}},
			"search-miss":     {0, index.ProbeStats{IndexReads: 1}},
			"first":           {1, index.ProbeStats{IndexReads: 1, DataPagesRead: 1}},
			"multi":           {15, index.ProbeStats{IndexReads: 2, DataPagesRead: 5, FalseReads: 2}},
			"scan-limit-70":   {70, index.ProbeStats{IndexReads: 5, DataPagesRead: 3}},
			"range":           {66, index.ProbeStats{IndexReads: 5, DataPagesRead: 3, FalseReads: 1}},
		},
		"hash": {
			"search-page-end": {3, index.ProbeStats{DataPagesRead: 1}},
			"search-mid-page": {3, index.ProbeStats{DataPagesRead: 1}},
			"search-miss":     {0, index.ProbeStats{}},
			"first":           {1, index.ProbeStats{DataPagesRead: 1}},
			"multi":           {15, index.ProbeStats{DataPagesRead: 4}},
			"scan-limit-70":   {70, index.ProbeStats{DataPagesRead: 3}},
			"range":           {66, index.ProbeStats{DataPagesRead: 2}},
		},
	}
	for _, v := range scanVariants() {
		if v.name == "bftree" || v.name == "bfforest" {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			ix, err := index.New(backendOf(v), pagestore.New(device.New(device.Memory, 4096)), file, 0, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()
			for _, p := range probes {
				res, err := p.run(ix)
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				got := costPin{Tuples: len(res.Tuples), Stats: res.Stats}
				if got != want[v.name][p.name] {
					t.Errorf("%s: got %+v, want %+v", p.name, got, want[v.name][p.name])
				}
			}
		})
	}
}

// TestRangeScanAllocations pins that the exact backends' fetch path
// hands out the tuples it reads without copying them: a bptree
// RangeScan returning about 3,000 tuples, in both layouts, allocates
// fewer objects than one per eight tuples. What it allocates is per
// leaf and per page, or grows with the answer.
func TestRangeScanAllocations(t *testing.T) {
	file, _ := goldenRelation(t, 6000)
	for _, dedup := range []bool{false, true} {
		ix, err := index.New("bptree", pagestore.New(device.New(device.Memory, 4096)), file, 0, index.Options{DedupKeys: dedup})
		if err != nil {
			t.Fatal(err)
		}
		var tuples int
		allocs := testing.AllocsPerRun(20, func() {
			res, err := ix.RangeScan(1000, 6000)
			if err != nil {
				t.Fatal(err)
			}
			tuples = len(res.Tuples)
		})
		if tuples != 3003 {
			t.Fatalf("dedup %v: RangeScan returned %d tuples, want 3003", dedup, tuples)
		}
		if allocs*8 >= float64(tuples) {
			t.Errorf("dedup %v: RangeScan allocates %v objects for %d tuples, want fewer than one per eight",
				dedup, allocs, tuples)
		}
		ix.Close()
	}
}
