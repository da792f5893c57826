package core

import (
	"testing"

	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// TestChooseShapePKStaysFine: for a unique key (15 distinct keys per
// 4 KB page of 256-byte tuples), the per-page load fits the per-page
// filter capacity, so the paper's best configuration — one filter per
// page — must be selected.
func TestChooseShapePKStaysFine(t *testing.T) {
	fx := newFixture(t, 30000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3})
	leaf, _, _, err := tr.descendPath(1000, false)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.granularity != 1 {
		t.Errorf("PK leaf granularity = %d, want 1", leaf.granularity)
	}
}

// TestChooseShapeHighCardCoarsens: with a very high-cardinality key
// (every key spans many pages), the leaf covers far more pages than it
// can afford per-page filters for, so granularity must grow — and
// probes must still find every key.
func TestChooseShapeHighCardCoarsens(t *testing.T) {
	store := pagestore.New(device.New(device.Memory, 4096))
	tp, err := workload.GenerateTPCH(store, 60000, 25, 5) // 2400 per date
	if err != nil {
		t.Fatal(err)
	}
	idx := pagestore.New(device.New(device.Memory, 4096))
	shipIdx := workload.TPCHSchema.FieldIndex("shipdate")
	tr, err := BulkLoad(idx, tp.File, shipIdx, Options{FPP: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	leaf, _, _, err := tr.descendPath(10, false)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.granularity <= 1 {
		t.Errorf("high-cardinality leaf granularity = %d, want coarse", leaf.granularity)
	}
	// The whole 60k-tuple table should index in very few pages.
	if tr.NumNodes() > 4 {
		t.Errorf("TPCH-style index uses %d pages, want <=4", tr.NumNodes())
	}
	// Every date still findable with the correct cardinality.
	for d := tp.MinDate; d <= tp.MaxDate; d += 3 {
		res, err := tr.Search(d)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(res.Tuples)) != tp.DateCards[d] {
			t.Fatalf("date %d: %d tuples, want %d", d, len(res.Tuples), tp.DateCards[d])
		}
	}
}

// TestEightKBPages: the paper allows 4 KB or 8 KB nodes; everything must
// work at 8 KB with roughly twice the keys per leaf.
func TestEightKBPages(t *testing.T) {
	dataStore := pagestore.New(device.New(device.Memory, 8192))
	syn, err := workload.GenerateSynthetic(dataStore, 30000, 11, 9)
	if err != nil {
		t.Fatal(err)
	}
	idx := pagestore.New(device.New(device.Memory, 8192))
	tr, err := BulkLoad(idx, syn.File, 0, Options{FPP: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := Options{FPP: 1e-3}.withDefaults()
	geo4, _ := geometryFor(4096, o)
	geo8, _ := geometryFor(8192, o)
	ratio := float64(geo8.KeysPerLeaf) / float64(geo4.KeysPerLeaf)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("8KB leaf capacity ratio = %g, want ≈2", ratio)
	}
	for k := uint64(0); k < 30000; k += 997 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("8KB tree lost key %d", k)
		}
	}
}

// TestAvgGroupLoad validates the load computation directly.
func TestAvgGroupLoad(t *testing.T) {
	pages := []pageKeys{
		{pid: 0, keys: []uint64{1, 2}},
		{pid: 1, keys: []uint64{2, 3}}, // 2 straddles pages 0-1
		{pid: 2, keys: []uint64{4}},
		{pid: 3, keys: []uint64{5, 6, 7}},
	}
	// g=1: loads are 2,2,1,3 → avg ceil(8/4) = 2.
	if got := avgGroupLoad(pages, 1); got != 2 {
		t.Errorf("g=1 avg load = %d, want 2", got)
	}
	// g=2: group(0,1) dedups key 2 → 3 distinct; group(2,3) → 4.
	// avg = ceil(7/2) = 4.
	if got := avgGroupLoad(pages, 2); got != 4 {
		t.Errorf("g=2 avg load = %d, want 4", got)
	}
	// g=4: one group, 7 distinct.
	if got := avgGroupLoad(pages, 4); got != 7 {
		t.Errorf("g=4 avg load = %d, want 7", got)
	}
	if got := avgGroupLoad(nil, 1); got != 0 {
		t.Errorf("empty load = %d", got)
	}
}

// TestGranularityOptionRespectedAsFloor: an explicit granularity larger
// than needed is kept, never refined below the request.
func TestGranularityOptionRespectedAsFloor(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3, Granularity: 4})
	leaf, _, _, err := tr.descendPath(500, false)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.granularity < 4 {
		t.Errorf("granularity %d below requested floor 4", leaf.granularity)
	}
}

// TestOpenHeapfileView covers heapfile.Open (reopening a previously
// built file).
func TestOpenHeapfileView(t *testing.T) {
	store := pagestore.New(device.New(device.Memory, 4096))
	syn, err := workload.GenerateSynthetic(store, 5000, 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := syn.File
	reopened, err := heapfile.Open(store, workload.SyntheticSchema, f.FirstPage(), f.NumPages(), f.NumTuples())
	if err != nil {
		t.Fatal(err)
	}
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, reopened, 0, Options{FPP: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.SearchFirst(1234)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("reopened view should be indexable")
	}
	if _, err := heapfile.Open(store, workload.SyntheticSchema, 0, 0, 0); err == nil {
		t.Error("empty view accepted")
	}
	if _, err := heapfile.Open(store, heapfile.Schema{TupleSize: 4}, 0, 1, 1); err == nil {
		t.Error("invalid schema accepted")
	}
}
