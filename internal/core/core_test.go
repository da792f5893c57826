package core

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"bftree/internal/branch"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// fixture bundles a generated relation and the stores backing it.
type fixture struct {
	dataStore *pagestore.Store
	idxStore  *pagestore.Store
	file      *heapfile.File
	syn       *workload.Synthetic
}

// newFixture generates relation R with n tuples on memory devices.
func newFixture(t *testing.T, n uint64, avgCard int) *fixture {
	t.Helper()
	dataStore := pagestore.New(device.New(device.Memory, 4096))
	idxStore := pagestore.New(device.New(device.Memory, 4096))
	syn, err := workload.GenerateSynthetic(dataStore, n, avgCard, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dataStore: dataStore, idxStore: idxStore, file: syn.File, syn: syn}
}

func (fx *fixture) build(t *testing.T, fieldIdx int, opts Options) *Tree {
	t.Helper()
	tr, err := BulkLoad(fx.idxStore, fx.file, fieldIdx, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{FPP: 0.01}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Granularity != 1 || o.Hashes != 0 {
		t.Errorf("defaults: granularity=%d hashes=%d, want 1 and 0 (auto)", o.Granularity, o.Hashes)
	}
	bad := []Options{
		{FPP: 0},
		{FPP: 1},
		{FPP: 0.1, Granularity: -1},
		{FPP: 0.1, Hashes: -2},
		{FPP: 0.1, Hashes: 256}, // the leaf header stores k in one byte
		{FPP: 0.1, Hashes: 257},
		{FPP: math.NaN()},
		{FPP: 0.1, Filter: FilterKind(9)},
	}
	for i, b := range bad {
		if _, err := b.withDefaults(); !errors.Is(err, ErrOptions) {
			t.Errorf("case %d (%+v): err = %v, want ErrOptions", i, b, err)
		}
	}
}

func TestGeometryEquation5(t *testing.T) {
	o, _ := Options{FPP: 0.01}.withDefaults()
	geo, err := geometryFor(4096, o)
	if err != nil {
		t.Fatal(err)
	}
	// (4096-63)*8 = 32264 bits; Equation 5: keys = -bits·ln²2/ln(0.01).
	if geo.FilterBits != 32264 {
		t.Errorf("filter bits = %d, want 32264", geo.FilterBits)
	}
	if geo.KeysPerLeaf < 3300 || geo.KeysPerLeaf > 3400 {
		t.Errorf("keys per leaf = %d, want ≈3365 (Equation 5)", geo.KeysPerLeaf)
	}
	// Counting filters spend 4 bits per position → 4x fewer keys.
	oc, _ := Options{FPP: 0.01, Filter: CountingFilter}.withDefaults()
	gc, err := geometryFor(4096, oc)
	if err != nil {
		t.Fatal(err)
	}
	if gc.KeysPerLeaf < geo.KeysPerLeaf/5 || gc.KeysPerLeaf > geo.KeysPerLeaf/3 {
		t.Errorf("counting keys per leaf = %d, want ≈%d/4", gc.KeysPerLeaf, geo.KeysPerLeaf)
	}
	if _, err := geometryFor(32, o); err == nil {
		t.Error("tiny page should be rejected")
	}
}

func TestBulkLoadPK(t *testing.T) {
	fx := newFixture(t, 50000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	if tr.NumKeys() != 50000 {
		t.Errorf("distinct keys = %d, want 50000", tr.NumKeys())
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d", tr.Height())
	}
	// 50000 keys / ~3372 keys-per-leaf → ~15 leaves; pages per leaf is
	// bounded by maxS too.
	if tr.NumLeaves() < 10 || tr.NumLeaves() > 40 {
		t.Errorf("leaves = %d, want ≈15", tr.NumLeaves())
	}
}

func TestBulkLoadErrors(t *testing.T) {
	fx := newFixture(t, 100, 11)
	if _, err := BulkLoad(fx.idxStore, fx.file, -1, Options{FPP: 0.01}); err == nil {
		t.Error("bad field index accepted")
	}
	if _, err := BulkLoad(fx.idxStore, fx.file, 5, Options{FPP: 0.01}); err == nil {
		t.Error("out-of-range field index accepted")
	}
	if _, err := BulkLoad(fx.idxStore, fx.file, 0, Options{FPP: 0}); err == nil {
		t.Error("invalid fpp accepted")
	}
}

func TestSearchPKAllHits(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.001})
	for _, key := range []uint64{0, 1, 14, 15, 9999, 19999} {
		res, err := tr.SearchFirst(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d: %d tuples", key, len(res.Tuples))
		}
		if got := fx.file.Schema().Get(res.Tuples[0], 0); got != key {
			t.Fatalf("key %d: got tuple with pk %d", key, got)
		}
		if res.Stats.IndexReads < tr.Height() {
			t.Errorf("key %d: %d index reads < height %d", key, res.Stats.IndexReads, tr.Height())
		}
	}
}

func TestSearchPKEveryKey(t *testing.T) {
	fx := newFixture(t, 5000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	// No false negatives ever: every key must be found.
	for key := uint64(0); key < 5000; key++ {
		res, err := tr.SearchFirst(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d not found", key)
		}
	}
}

func TestSearchMisses(t *testing.T) {
	fx := newFixture(t, 10000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.001})
	misses := 0
	for key := uint64(20000); key < 21000; key++ {
		res, err := tr.Search(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 0 {
			misses++
		}
	}
	if misses != 0 {
		t.Errorf("%d out-of-range probes matched", misses)
	}
}

func TestSearchATT1NonUnique(t *testing.T) {
	fx := newFixture(t, 30000, 11)
	tr := fx.build(t, 1, Options{FPP: 0.001})
	// Count reference cardinalities from the file.
	want := make(map[uint64]int)
	fx.file.Scan(func(_ device.PageID, _ int, tup []byte) bool {
		want[fx.file.Schema().Get(tup, 1)]++
		return true
	})
	checked := 0
	for _, key := range fx.syn.ATT1Keys {
		if checked >= 300 {
			break
		}
		checked++
		res, err := tr.Search(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != want[key] {
			t.Fatalf("key %d: %d tuples, want %d", key, len(res.Tuples), want[key])
		}
		for _, tup := range res.Tuples {
			if fx.file.Schema().Get(tup, 1) != key {
				t.Fatalf("key %d: wrong tuple returned", key)
			}
		}
	}
}

func TestFalseReadsTrackFPP(t *testing.T) {
	fx := newFixture(t, 40000, 11)
	loose := fx.build(t, 0, Options{FPP: 0.2})
	fxTight := newFixture(t, 40000, 11)
	tight := fxTight.build(t, 0, Options{FPP: 1e-6})

	countFalse := func(tr *Tree) int {
		total := 0
		for key := uint64(100); key < 1100; key++ {
			res, err := tr.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.FalseReads
		}
		return total
	}
	looseFalse := countFalse(loose)
	tightFalse := countFalse(tight)
	if tightFalse > looseFalse/10 && looseFalse > 0 {
		t.Errorf("false reads: loose=%d tight=%d; tight fpp should nearly eliminate them",
			looseFalse, tightFalse)
	}
	if looseFalse == 0 {
		t.Error("fpp=0.2 should produce false reads over 1000 probes")
	}
}

func TestSizeShrinksWithFPP(t *testing.T) {
	// Table 2's central claim: higher fpp → smaller tree.
	var prev uint64
	for i, fpp := range []float64{0.2, 0.01, 1e-6, 1e-12} {
		fx := newFixture(t, 30000, 11)
		tr := fx.build(t, 0, Options{FPP: fpp})
		if i > 0 && tr.SizeBytes() < prev {
			t.Errorf("fpp=%g: size %d smaller than looser tree %d", fpp, tr.SizeBytes(), prev)
		}
		prev = tr.SizeBytes()
	}
}

func TestLeafChainCoversFile(t *testing.T) {
	fx := newFixture(t, 25000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	pid := tr.loadMeta().firstLeaf
	expectPid := fx.file.FirstPage()
	leaves := uint64(0)
	for pid != device.InvalidPage {
		leaf, err := indexReader{t: tr}.leaf(pid)
		if err != nil {
			t.Fatal(err)
		}
		if leaf.minPid != expectPid {
			t.Fatalf("leaf %d starts at page %d, want %d (gap or overlap)", leaves, leaf.minPid, expectPid)
		}
		if leaf.maxPid < leaf.minPid {
			t.Fatal("inverted page range")
		}
		expectPid = leaf.maxPid + 1
		leaves++
		pid = leaf.next
	}
	if leaves != tr.NumLeaves() {
		t.Errorf("chain has %d leaves, tree says %d", leaves, tr.NumLeaves())
	}
	wantEnd := fx.file.FirstPage() + device.PageID(fx.file.NumPages())
	if expectPid != wantEnd {
		t.Errorf("chain ends at page %d, file ends at %d", expectPid, wantEnd)
	}
}

func TestCandidatesWithinLeafRange(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.1})
	var stats ProbeStats
	pages, err := tr.candidatePages(1234, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("existing key produced no candidates")
	}
	last := tr.lastDataPage()
	for _, p := range pages {
		if p < fx.file.FirstPage() || p > last {
			t.Fatalf("candidate page %d outside file", p)
		}
	}
}

func TestGranularityGroupsPages(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	g1 := fx.build(t, 0, Options{FPP: 0.01, Granularity: 1})
	fx4 := newFixture(t, 20000, 11)
	g4 := fx4.build(t, 0, Options{FPP: 0.01, Granularity: 4})

	// Coarser granularity reads more candidate pages per probe.
	sumCand := func(tr *Tree) int {
		total := 0
		for key := uint64(0); key < 500; key++ {
			res, err := tr.Search(key)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Stats.CandidatePages
		}
		return total
	}
	c1, c4 := sumCand(g1), sumCand(g4)
	if c4 <= c1 {
		t.Errorf("granularity 4 candidates (%d) should exceed granularity 1 (%d)", c4, c1)
	}
	// But never miss.
	for key := uint64(0); key < 500; key++ {
		res, err := g4.SearchFirst(key)
		if err != nil || len(res.Tuples) != 1 {
			t.Fatalf("granularity 4 lost key %d", key)
		}
	}
}

func TestLeafEncodeDecodeRoundTrip(t *testing.T) {
	o, _ := Options{FPP: 0.01, Hashes: 3}.withDefaults()
	l := newBFLeaf(10, 19, o, 512, 10, 4096)
	for k := uint64(100); k < 200; k++ {
		pid := device.PageID(10 + (k-100)/10)
		if err := l.addKey(k, pid); err != nil {
			t.Fatal(err)
		}
		if k < l.minKey {
			l.minKey = k
		}
		if k > l.maxKey {
			l.maxKey = k
		}
		l.numKeys++
	}
	l.next = 77
	buf, err := encodeBFLeaf(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBFLeaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.minPid != 10 || back.maxPid != 19 || back.next != 77 ||
		back.minKey != 100 || back.maxKey != 199 || back.numKeys != 100 {
		t.Fatalf("header mismatch: %+v", back)
	}
	// Filters must answer identically.
	for k := uint64(100); k < 200; k++ {
		bid := int((k - 100) / 10)
		if !back.probeOne(bid, k) {
			t.Fatalf("key %d lost in round trip", k)
		}
	}
}

func TestLeafDecodeCorruption(t *testing.T) {
	buf := make([]byte, 4096)
	if _, err := decodeBFLeaf(buf); err == nil {
		t.Error("zero page decoded as BF-leaf")
	}
	buf[0] = nodeBFLeaf
	// granularity 0 and hashes 0 in header.
	if _, err := decodeBFLeaf(buf); err == nil {
		t.Error("zero granularity accepted")
	}
	if _, err := decodeBFLeaf(buf[:10]); err == nil {
		t.Error("short page accepted")
	}
	if _, err := nodeKind([]byte{}); err == nil {
		t.Error("empty page got a kind")
	}
}

func TestCountingLeafRoundTrip(t *testing.T) {
	o, _ := Options{FPP: 0.01, Filter: CountingFilter, Hashes: 3}.withDefaults()
	l := newBFLeaf(0, 3, o, 256, 4, 4096)
	for k := uint64(0); k < 40; k++ {
		if err := l.addKey(k, device.PageID(k/10)); err != nil {
			t.Fatal(err)
		}
	}
	l.minKey, l.maxKey, l.numKeys = 0, 39, 40
	buf, err := encodeBFLeaf(l)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBFLeaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 40; k++ {
		if !back.probeOne(int(k/10), k) {
			t.Fatalf("key %d lost", k)
		}
	}
	// Counting leaves can remove; key 5's only association is on page 0,
	// so its removal reports the last association gone (unless another
	// key's bits alias it, which 3 hashes over 256 slots make unlikely).
	lastGone, err := back.removeKey(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !lastGone {
		t.Error("sole association removed but not reported as the last")
	}
	// A key claimed by two filters keeps its slot until both are gone.
	if err := back.addKey(7, 3); err != nil { // second association on filter 3
		t.Fatal(err)
	}
	if lastGone, err := back.removeKey(7, 0); err != nil || lastGone {
		t.Errorf("removeKey(7, page 0) = (%v, %v), want (false, nil): filter 3 still claims it", lastGone, err)
	}
	if lastGone, err := back.removeKey(7, 3); err != nil || !lastGone {
		t.Errorf("removeKey(7, page 3) = (%v, %v), want (true, nil): last association", lastGone, err)
	}
	// Standard leaves cannot remove.
	so, _ := Options{FPP: 0.01, Hashes: 3}.withDefaults()
	sl := newBFLeaf(0, 0, so, 256, 1, 4096)
	if _, err := sl.removeKey(1, 0); err == nil {
		t.Error("standard leaf allowed a delete")
	}
}

func TestEffectiveFPPDrift(t *testing.T) {
	fx := newFixture(t, 10000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.001})
	if got := tr.EffectiveFPP(); got != 0.001 {
		t.Errorf("fresh tree fpp = %g", got)
	}
	tr.publish(func(m *treeMeta) { m.inserts = m.numKeys / 10 }) // +10 % inserts
	drifted := tr.EffectiveFPP()
	if drifted <= 0.001 {
		t.Error("inserts must raise effective fpp")
	}
	// Equation 14: fpp^(1/1.1).
	tr.publish(func(m *treeMeta) { m.deletes = m.numKeys / 10 })
	withDeletes := tr.EffectiveFPP()
	if withDeletes < drifted+0.09 {
		t.Errorf("10%% deletes should add ≈0.1: %g vs %g", withDeletes, drifted)
	}
}

func TestInternalPagesWarm(t *testing.T) {
	fx := newFixture(t, 50000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	pages, err := tr.InternalPages()
	if err != nil {
		t.Fatal(err)
	}
	want := tr.NumNodes() - tr.NumLeaves()
	if uint64(len(pages)) != want {
		t.Errorf("internal pages = %d, want %d", len(pages), want)
	}
	// A single-leaf tree has none.
	fx2 := newFixture(t, 100, 11)
	tr2 := fx2.build(t, 0, Options{FPP: 0.1})
	pages2, err := tr2.InternalPages()
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Height() == 1 && len(pages2) != 0 {
		t.Error("single-leaf tree should have no internal pages")
	}
}

// TestCorruptInternalPage: a corrupt internal page answers ErrCorrupt,
// this package's sentinel, on every path that reads one: a probe's
// descent, an insert's, and the walk of the internal pages.
func TestCorruptInternalPage(t *testing.T) {
	fx := newFixture(t, 50000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	if tr.Height() < 2 {
		t.Fatal("fixture needs internal levels")
	}
	page := make([]byte, fx.idxStore.PageSize())
	page[0] = branch.Kind
	binary.LittleEndian.PutUint16(page[1:3], 0xffff) // keys and children overflow the page
	if err := fx.idxStore.WritePage(tr.Root(), page); err != nil {
		t.Fatal(err)
	}
	_, serr := tr.Search(5)
	_, werr := tr.InternalPages()
	for name, err := range map[string]error{
		"Search":        serr,
		"InternalPages": werr,
		"Insert":        tr.Insert(5, fx.file.FirstPage()),
	} {
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestTreeString(t *testing.T) {
	fx := newFixture(t, 1000, 11)
	tr := fx.build(t, 0, Options{FPP: 0.01})
	if tr.String() == "" {
		t.Error("String should format")
	}
}
