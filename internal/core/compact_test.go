package core

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// driftFixture bulk-loads a tree over even keys 0,2,..,2(n-1) on small
// index pages (many leaves) and returns the keys; odd keys are
// guaranteed absent, so inserting them records drift deterministically.
func driftFixture(t *testing.T, n int, opts Options) ([]uint64, *Tree, *pagestore.Store, *heapfile.File) {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return keys, tr, idx, f
}

// sumDrift folds per-leaf drift into tree-wide totals.
func sumDrift(t *testing.T, tr *Tree) (ins, del uint64) {
	t.Helper()
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		ins += uint64(d.Inserts)
		del += uint64(d.Deletes)
	}
	return ins, del
}

// assertDriftInvariant checks the accounting contract behind incremental
// compaction: at quiescence the per-leaf counters partition the global
// ones exactly — every published increment is charged to exactly one
// leaf, and compaction sheds exactly what it charged.
func assertDriftInvariant(t *testing.T, tr *Tree) {
	t.Helper()
	ins, del := sumDrift(t, tr)
	m := tr.loadMeta()
	if ins != m.inserts || del != m.deletes {
		t.Errorf("per-leaf drift (ins %d, del %d) != global (ins %d, del %d)",
			ins, del, m.inserts, m.deletes)
	}
}

// TestPerLeafDriftInvariant pins the core accounting: mixed inserts of
// new keys and logical deletes of present keys must leave the per-leaf
// counters summing exactly to the published global drift, spread over
// more than one leaf.
func TestPerLeafDriftInvariant(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01})
	if tr.NumLeaves() < 4 {
		t.Fatalf("fixture too small: %d leaves", tr.NumLeaves())
	}
	// 300 new (odd) keys spread across the key space, 150 logical
	// deletes of present keys.
	for i := 0; i < 300; i++ {
		ord := (i * 13) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes of present keys always probe true, so the count is exact;
	// a new key can collide in a filter (design fpp) and absorb without
	// drift, so the insert count may fall a hair short of 300.
	m := tr.loadMeta()
	if m.inserts < 290 || m.inserts > 300 || m.deletes != 150 {
		t.Fatalf("global drift (ins %d, del %d), want (≈300, 150)", m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	for _, d := range drifts {
		if d.Total() > 0 {
			charged++
		}
	}
	if charged < 2 {
		t.Errorf("drift landed on %d leaves, want it spread over several", charged)
	}
}

// maintainPass runs one maintenance pass the way the background
// maintainer does: maintainLocked under the exclusive writer lock. Under
// an incremental policy over its threshold, the pass compacts the
// IncrementalBatch most-drifted leaves.
func maintainPass(t *testing.T, tr *Tree) {
	t.Helper()
	tr.writeMu.Lock()
	defer tr.writeMu.Unlock()
	if _, err := tr.maintainLocked(true); err != nil {
		t.Fatal(err)
	}
}

// churnDrift inserts 200 new (odd) keys and logically deletes 100
// present ones, spread across a driftFixture's key space. The delete
// term alone (100/4000) puts the estimate past a 0.02 threshold.
func churnDrift(t *testing.T, tr *Tree, keys []uint64, f *heapfile.File) {
	t.Helper()
	for i := 0; i < 200; i++ {
		ord := (i * 17) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		ord := (i * 173) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
}

// mostDrifted returns the leaf the maintainer ranks first: the largest
// drift, the earliest in chain order among equals.
func mostDrifted(t *testing.T, tr *Tree) LeafDrift {
	t.Helper()
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	top := drifts[0]
	for _, d := range drifts[1:] {
		if d.Total() > top.Total() {
			top = d
		}
	}
	if top.Total() == 0 {
		t.Fatal("no drifted leaf to compact")
	}
	return top
}

// assertPageEconomy checks that live + free + limbo pages account for
// the whole index device.
func assertPageEconomy(t *testing.T, tr *Tree, idx *pagestore.Store) {
	t.Helper()
	inLimbo := uint64(tr.MaintenanceStats().LimboPages)
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	if total := idx.Device().NumPages(); live+free+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, free, inLimbo, total)
	}
}

// TestCompactLeavesShedsDrift drives the partial-rebuild path through
// one maintainer pass at batch 1: compacting the most-drifted leaf must
// shed exactly its contribution from the global counters, keep every
// key findable, and leave the page economy balanced.
func TestCompactLeavesShedsDrift(t *testing.T) {
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.02,
		IncrementalBatch: 1,
	}})
	churnDrift(t, tr, keys, f)
	top := mostDrifted(t, tr)

	pre := tr.loadMeta()
	maintainPass(t, tr)
	post := tr.loadMeta()
	if post.inserts != pre.inserts-uint64(top.Inserts) ||
		post.deletes != pre.deletes-uint64(top.Deletes) {
		t.Errorf("compaction shed (ins %d, del %d), want exactly (%d, %d)",
			pre.inserts-post.inserts, pre.deletes-post.deletes, top.Inserts, top.Deletes)
	}
	if post.numKeys != pre.numKeys || post.numLeaves != pre.numLeaves {
		t.Errorf("compaction changed shape: keys %d->%d leaves %d->%d",
			pre.numKeys, post.numKeys, pre.numLeaves, post.numLeaves)
	}
	assertDriftInvariant(t, tr)
	// Every build-time key must survive the rewrite.
	for i := 0; i < len(keys); i += 97 {
		res, err := tr.SearchFirst(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d lost after compaction", keys[i])
		}
	}
	st := tr.MaintenanceStats()
	if st.LeavesCompacted != 1 {
		t.Errorf("LeavesCompacted = %d, want 1", st.LeavesCompacted)
	}
	if st.CompactionMaxStall <= 0 || st.CompactionTotalStall < st.CompactionMaxStall ||
		st.CompactionMinStall > st.CompactionMaxStall {
		t.Errorf("stall stats inconsistent: min %v max %v total %v",
			st.CompactionMinStall, st.CompactionMaxStall, st.CompactionTotalStall)
	}

	// Drain limbo and balance the books.
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	assertPageEconomy(t, tr, idx)
}

// TestCompactInPlaceKeepsPages pins that a leaf compaction is a rewrite
// at the leaf's own page id: after maintainer passes that compact
// leaves, the leaf chain holds the same pids, the index device and the
// store's free list did not change size, nothing went to limbo, and the
// compacted leaves carry zero drift while the others keep theirs.
func TestCompactInPlaceKeepsPages(t *testing.T) {
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.02,
		IncrementalBatch: 4,
	}})
	churnDrift(t, tr, keys, f)
	before, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	pages, free := idx.Device().NumPages(), idx.FreePages()

	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := tr.MaintenanceStats()
	if st.LeavesCompacted == 0 {
		t.Fatal("Maintain compacted no leaf")
	}
	after, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("leaf chain went from %d to %d leaves", len(before), len(after))
	}
	compacted := uint64(0)
	for i, d := range after {
		if d.Pid != before[i].Pid {
			t.Errorf("leaf %d moved from pid %d to %d", i, before[i].Pid, d.Pid)
		}
		switch {
		case d.Total() == 0 && before[i].Total() > 0:
			compacted++
		case d != before[i]:
			t.Errorf("leaf %d drift went from %+v to %+v, want zero or unchanged", i, before[i], d)
		}
	}
	if compacted != st.LeavesCompacted {
		t.Errorf("%d leaves lost their drift, LeavesCompacted = %d", compacted, st.LeavesCompacted)
	}
	if got := idx.Device().NumPages(); got != pages {
		t.Errorf("index device went from %d to %d pages", pages, got)
	}
	if got := idx.FreePages(); got != free {
		t.Errorf("free list went from %d to %d pages", free, got)
	}
	if st.LimboPages != 0 {
		t.Errorf("%d pages in limbo after in-place compaction", st.LimboPages)
	}
	assertDriftInvariant(t, tr)
}

// TestCompactFailedRewriteChangesNothing injects a write fault on the
// most-drifted leaf's own pid: the maintainer's pass must fail with it
// and leave the tree as it was — every key findable, global drift
// unchanged, the page economy balanced — and once the fault clears the
// same pass compacts the leaf and sheds its drift.
func TestCompactFailedRewriteChangesNothing(t *testing.T) {
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.02,
		IncrementalBatch: 1,
	}})
	churnDrift(t, tr, keys, f)
	top := mostDrifted(t, tr)
	injected := errors.New("injected leaf rewrite failure")
	tr.leafWriteFault = func(pid device.PageID) error {
		if pid == top.Pid {
			return injected
		}
		return nil
	}
	pre := tr.loadMeta()
	pages := idx.Device().NumPages()

	if err := tr.Maintain(); !errors.Is(err, injected) {
		t.Fatalf("Maintain with a failing leaf rewrite = %v, want the injected error", err)
	}
	if st := tr.MaintenanceStats(); st.CompactionFailures != 1 || st.LeavesCompacted != 0 {
		t.Errorf("CompactionFailures = %d, LeavesCompacted = %d; want 1, 0",
			st.CompactionFailures, st.LeavesCompacted)
	}
	for _, k := range keys {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d lost through the failed compaction", k)
		}
	}
	if post := tr.loadMeta(); post.inserts != pre.inserts || post.deletes != pre.deletes {
		t.Errorf("failed compaction moved global drift: ins %d->%d del %d->%d",
			pre.inserts, post.inserts, pre.deletes, post.deletes)
	}
	if got := idx.Device().NumPages(); got != pages {
		t.Errorf("index device went from %d to %d pages", pages, got)
	}
	assertPageEconomy(t, tr, idx)
	assertDriftInvariant(t, tr)

	tr.leafWriteFault = nil
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	leaf, err := indexReader{t: tr}.leaf(top.Pid)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.driftIns != 0 || leaf.driftDel != 0 {
		t.Errorf("leaf %d still carries drift (ins %d, del %d) after the retry",
			top.Pid, leaf.driftIns, leaf.driftDel)
	}
	if st := tr.MaintenanceStats(); st.LeavesCompacted == 0 {
		t.Error("the retry compacted no leaf")
	}
	assertDriftInvariant(t, tr)
}

// TestCompactPartlyFailedBatchIsRecorded injects a write fault on the
// second leaf of a two-leaf batch: the first leaf is rewritten and its
// drift shed before the batch fails. The pass must return the error and
// still record what it did: one failure, one leaf compacted and the
// hold's stall, with the per-leaf drift summing to the global drift.
func TestCompactPartlyFailedBatchIsRecorded(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.02,
		IncrementalBatch: 2,
	}})
	churnDrift(t, tr, keys, f)
	// Rank the leaves as the maintainer does.
	ranked, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Total() > ranked[j].Total() })
	first, second := ranked[0], ranked[1]
	if second.Total() == 0 {
		t.Fatal("fixture has fewer than two drifted leaves")
	}
	injected := errors.New("injected leaf rewrite failure")
	tr.leafWriteFault = func(pid device.PageID) error {
		if pid == second.Pid {
			return injected
		}
		return nil
	}
	pre := tr.loadMeta()

	if err := tr.Maintain(); !errors.Is(err, injected) {
		t.Fatalf("Maintain with the second leaf failing = %v, want the injected error", err)
	}
	st := tr.MaintenanceStats()
	if st.CompactionFailures != 1 || st.LeavesCompacted != 1 {
		t.Errorf("CompactionFailures = %d, LeavesCompacted = %d; want 1, 1",
			st.CompactionFailures, st.LeavesCompacted)
	}
	if st.CompactionTotalStall <= 0 {
		t.Error("the failed batch's hold recorded no stall")
	}
	post := tr.loadMeta()
	if post.inserts != pre.inserts-uint64(first.Inserts) || post.deletes != pre.deletes-uint64(first.Deletes) {
		t.Errorf("global drift ins %d->%d del %d->%d; want the first leaf's (ins %d, del %d) shed",
			pre.inserts, post.inserts, pre.deletes, post.deletes, first.Inserts, first.Deletes)
	}
	assertDriftInvariant(t, tr)
}

// TestCompactSingleLeafRoot exercises the height-1 case: the lone leaf
// is the root, and compacting it rewrites it where it lies, so the root
// pointer stays put while the drift is shed.
func TestCompactSingleLeafRoot(t *testing.T) {
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 4096))
	// 20 new keys on 200 lift the Equation 14 estimate to about 0.015.
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.012,
		IncrementalBatch: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("fixture should be a single-leaf tree, height %d", tr.Height())
	}
	for i := 0; i < 20; i++ {
		if err := tr.Insert(keys[i]+1, f.PageOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	oldRoot := tr.loadMeta().root
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if n := tr.MaintenanceStats().LeavesCompacted; n != 1 {
		t.Fatalf("compacted %d leaves, want 1", n)
	}
	m := tr.loadMeta()
	if m.root != oldRoot || m.firstLeaf != m.root {
		t.Errorf("root moved: root %d firstLeaf %d old %d", m.root, m.firstLeaf, oldRoot)
	}
	if m.inserts != 0 || m.deletes != 0 {
		t.Errorf("drift not shed: ins %d del %d", m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
	for _, k := range keys {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d lost compacting the root leaf", k)
		}
	}
}

// TestIncrementalMaintainConverges puts the maintainer's selection
// policy under test: with IncrementalBatch set and drift past the
// threshold, Maintain must converge below the threshold through
// partial rebuilds alone — multiple bounded passes, zero whole-tree
// Rebuilds — because the decrement rule sheds exactly the compacted
// leaves' contributions.
func TestIncrementalMaintainConverges(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.05,
		IncrementalBatch: 2,
	}})
	// 280 logical deletes alone push the Section 7 additive term to
	// deletes/numKeys = 0.07; with 300 insert drift on top the estimate
	// is safely past the threshold, and one 2-leaf batch cannot shed
	// enough to converge — multiple passes are structurally required.
	for i := 0; i < 300; i++ {
		ord := (i * 13) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 280; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.driftNeedsCompaction() {
		t.Fatalf("fixture under threshold: fpp %g", tr.EffectiveFPP())
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if tr.driftNeedsCompaction() {
		t.Errorf("incremental maintenance did not converge: fpp %g", tr.EffectiveFPP())
	}
	st := tr.MaintenanceStats()
	if st.Compactions != 0 {
		t.Errorf("%d whole-tree rebuilds; incremental mode must not fall back here", st.Compactions)
	}
	if st.IncrementalPasses < 2 {
		t.Errorf("IncrementalPasses = %d, want ≥2 (batch 2 over several drifted leaves)", st.IncrementalPasses)
	}
	if st.LeavesCompacted < uint64(st.IncrementalPasses) {
		t.Errorf("LeavesCompacted = %d < passes %d", st.LeavesCompacted, st.IncrementalPasses)
	}
	if st.CompactionMaxStall <= 0 {
		t.Error("no compaction stall recorded")
	}
	assertDriftInvariant(t, tr)
}

// TestFullRebuildFallbackWhenDriftUnattributed pins the pathological
// path: when the estimate is over threshold but no leaf carries
// attributable drift (here: counters zeroed behind the meta's back),
// the incremental pass finds nothing and the maintainer falls back to
// the whole-tree Rebuild rather than spinning forever.
func TestFullRebuildFallbackWhenDriftUnattributed(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.05,
		IncrementalBatch: 2,
	}})
	for i := 0; i < 300; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe the per-leaf counters, simulating an index whose leaves
	// predate per-leaf accounting (or lost it to corruption).
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		leaf, err := indexReader{t: tr}.leaf(d.Pid)
		if err != nil {
			t.Fatal(err)
		}
		leaf.driftIns, leaf.driftDel = 0, 0
		if err := tr.writeLeaf(d.Pid, leaf); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.driftNeedsCompaction() {
		t.Fatalf("fixture under threshold: fpp %g", tr.EffectiveFPP())
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := tr.MaintenanceStats()
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1 full-rebuild fallback", st.Compactions)
	}
	if tr.driftNeedsCompaction() {
		t.Errorf("fallback did not converge: fpp %g", tr.EffectiveFPP())
	}
}

// TestSplitByRebuildShedsDriftToGlobals is the regression test for the
// drift accounting at the rebuild split (the full-domain leaf forces
// splitByRebuild): the halves are re-derived exactly from the data
// pages, so the old leaf's drift must be shed from the global counters
// — not carried into halves that no longer contain it. Before the fix
// the globals kept the dead contribution forever and
// driftNeedsCompaction could never converge past such a split.
func TestSplitByRebuildShedsDriftToGlobals(t *testing.T) {
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
	// Drift the leaf: one genuinely new key, two logical deletes.
	if err := tr.Insert(150, f.PageOf(50)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{40, 60} {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if m := tr.loadMeta(); m.inserts != 1 || m.deletes != 2 {
		t.Fatalf("setup drift (ins %d, del %d), want (1, 2)", m.inserts, m.deletes)
	}
	// Saturate the key budget so the next insert splits; the full-domain
	// span selects the exact rebuild variant.
	leaf, leafPid, _, err := tr.descendPath(0, true)
	if err != nil {
		t.Fatal(err)
	}
	leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
	if err := tr.writeLeaf(leafPid, leaf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(151, f.PageOf(51)); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2 after the split", tr.NumLeaves())
	}
	// The split shed all pre-split drift; the only drift left is the
	// triggering key 151, absorbed after the re-descend and charged to
	// its half.
	m := tr.loadMeta()
	if m.inserts != 1 || m.deletes != 0 {
		t.Errorf("post-split drift (ins %d, del %d), want (1, 0): rebuild split must shed",
			m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
}

// TestSplitByProbeTransfersDrift is the counterpart: a probe-based
// split carries the old filters' contents into the halves, so the
// drift contribution survives and must transfer — sum preserved across
// the halves, globals untouched.
func TestSplitByProbeTransfersDrift(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Drift one narrow-domain leaf with logical deletes.
	leaf, leafPid, path, err := tr.descendPath(500, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := leaf.minKey; k < leaf.minKey+5; k++ {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	preIns, preDel := tr.loadMeta().inserts, tr.loadMeta().deletes
	// Re-read: the deletes rewrote the leaf page.
	leaf, err = indexReader{t: tr}.leaf(leafPid)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.maxKey-leaf.minKey >= splitEnumLimit {
		t.Fatalf("leaf span [%d,%d] would select the rebuild split", leaf.minKey, leaf.maxKey)
	}
	if leaf.driftDel == 0 {
		t.Fatal("setup recorded no per-leaf drift")
	}
	want := LeafDrift{Inserts: leaf.driftIns, Deletes: leaf.driftDel}
	if err := tr.splitLeaf(leaf, leafPid, path); err != nil {
		t.Fatal(err)
	}
	m := tr.loadMeta()
	if m.inserts != preIns || m.deletes != preDel {
		t.Errorf("probe split changed globals (ins %d->%d, del %d->%d)",
			preIns, m.inserts, preDel, m.deletes)
	}
	ins, del := sumDrift(t, tr)
	if ins != uint64(want.Inserts) || del != uint64(want.Deletes) {
		t.Errorf("halves carry (ins %d, del %d), want the transferred (%d, %d)",
			ins, del, want.Inserts, want.Deletes)
	}
	assertDriftInvariant(t, tr)
}

// TestIncrementalCompactionRace is the satellite race test: 8 latched
// writers (new-key inserts and logical deletes) and 4 readers run
// while the auto maintainer performs incremental compaction. At
// quiescence the page economy must balance exactly and the per-leaf
// drift counters must sum to the global ones — no published increment
// lost to a concurrent partial rebuild.
func TestIncrementalCompactionRace(t *testing.T) {
	const distinct = 4000
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		Mode:             MaintenanceAuto,
		ReclaimInterval:  time.Millisecond,
		FPPThreshold:     0.04, // ~160 drifted ops re-arm it
		IncrementalBatch: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 12)
	// 4 writers insert odd keys — genuinely new, so each run charges
	// drift; compaction rewrites the leaf from the relation, dropping
	// the phantom claims, so re-inserting keeps regenerating drift.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ord := (i*131 + w*977) % distinct
				if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
					errs[w] = err
					return
				}
				i++
			}
		}(w)
	}
	// 4 writers logically delete present keys — the standard-filter
	// delete always claims, so drift accrues unboundedly.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ord := (i*193 + w*547) % distinct
				if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
					errs[4+w] = err
					return
				}
				i++
			}
		}(w)
	}
	// 4 readers: build-time keys stay physically present, so a rewrite
	// must never lose them.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i*173+r*709)%distinct]
				res, err := tr.SearchFirst(k)
				if err != nil {
					errs[8+r] = err
					return
				}
				if len(res.Tuples) == 0 {
					errs[8+r] = errors.New("key vanished")
					return
				}
				i++
			}
		}(r)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := tr.MaintenanceStats()
		if st.IncrementalPasses >= 3 && st.PagesReclaimed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := tr.MaintenanceStats()
	if st.IncrementalPasses == 0 {
		t.Fatalf("maintainer never compacted incrementally in 10s: %+v", st)
	}
	if st.LeavesCompacted == 0 || st.CompactionMaxStall <= 0 {
		t.Errorf("compaction ran without stats: %+v", st)
	}

	// Quiescence: no increment lost, no page leaked. The writers have
	// stopped; stopping the maintainer too keeps a pass from publishing
	// between the per-leaf walk and the global counters' read.
	tr.StopMaintenance()
	assertDriftInvariant(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	inLimbo := uint64(tr.MaintenanceStats().LimboPages)
	if inLimbo != 0 {
		t.Errorf("%d pages stuck in limbo after Close on a quiescent tree", inLimbo)
	}
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	total := idx.Device().NumPages()
	if live+free+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, free, inLimbo, total)
	}
}
