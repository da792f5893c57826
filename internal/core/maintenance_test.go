package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// forceSplit saturates the leaf covering key and inserts newKey, which
// must be genuinely new, driving one capacity split through the
// exclusive COW path. It returns an error the caller can assert on.
func forceSplit(t *testing.T, tr *Tree, f interface {
	PageOf(uint64) device.PageID
}, key, newKey uint64, ord uint64) error {
	t.Helper()
	leaf, leafPid, _, err := tr.descendPath(key, true)
	if err != nil {
		return err
	}
	if uint64(leaf.numKeys) < tr.geo.KeysPerLeaf {
		leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
		if err := tr.writeLeaf(leafPid, leaf); err != nil {
			return err
		}
	}
	return tr.Insert(newKey, f.PageOf(ord))
}

// TestMaintenancePolicyDefaults pins the policy validation: zero values
// fill with usable defaults, the threshold must exceed the design fpp,
// and junk modes are rejected.
func TestMaintenancePolicyDefaults(t *testing.T) {
	o, err := Options{FPP: 0.01}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	mp := o.Maintenance
	if mp.Mode != MaintenanceManual {
		t.Errorf("default mode = %d, want manual", mp.Mode)
	}
	if mp.FPPThreshold != 0.04 {
		t.Errorf("default threshold = %g, want 4x design fpp", mp.FPPThreshold)
	}
	if mp.ReclaimInterval <= 0 || mp.LimboHighWater <= 0 {
		t.Errorf("defaults unfilled: %+v", mp)
	}
	// A loose design fpp still gets a threshold strictly inside (fpp, 1).
	o, err = Options{FPP: 0.4}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if th := o.Maintenance.FPPThreshold; th <= 0.4 || th >= 1 {
		t.Errorf("loose-fpp default threshold = %g, want in (0.4, 1)", th)
	}
	bad := []Options{
		{FPP: 0.01, Maintenance: MaintenancePolicy{Mode: 99}},
		{FPP: 0.01, Maintenance: MaintenancePolicy{FPPThreshold: 0.01}}, // == fpp
		{FPP: 0.01, Maintenance: MaintenancePolicy{FPPThreshold: 1.5}},
		{FPP: 0.01, Maintenance: MaintenancePolicy{FPPThreshold: math.NaN()}}, // would silently disable compaction
		{FPP: 0.01, Maintenance: MaintenancePolicy{ReclaimInterval: -time.Second}},
		{FPP: 0.01, Maintenance: MaintenancePolicy{LimboHighWater: -1}},
		{FPP: 0.01, Maintenance: MaintenancePolicy{IncrementalBatch: -1}},
	}
	for i, o := range bad {
		if _, err := o.withDefaults(); !errors.Is(err, ErrOptions) {
			t.Errorf("bad policy %d accepted: %v", i, err)
		}
	}
}

// TestMaintenancePolicyRoundTrip checks the persisted metadata carries
// the maintenance policy, and that Open accepts only the one blob
// length MarshalMeta writes.
func TestMaintenancePolicyRoundTrip(t *testing.T) {
	fx := newFixture(t, 5000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3, Maintenance: MaintenancePolicy{
		Mode:             MaintenanceManual,
		FPPThreshold:     0.25,
		ReclaimInterval:  42 * time.Millisecond,
		LimboHighWater:   7,
		IncrementalBatch: 5,
	}})
	meta := tr.MarshalMeta()
	back, err := Open(fx.idxStore, fx.file, meta)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Options().Maintenance; got != tr.Options().Maintenance {
		t.Errorf("policy did not round-trip: %+v vs %+v", got, tr.Options().Maintenance)
	}
	// One layout: the lengths earlier layouts and torn writes leave
	// behind are corruption.
	for _, blob := range [][]byte{meta[:86], meta[:100], meta[:107], meta[:110], append(meta[:len(meta):len(meta)], 0)} {
		if _, err := Open(fx.idxStore, fx.file, blob); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%d-byte blob: err = %v, want ErrCorrupt", len(blob), err)
		}
	}
}

// TestRebuildResetsDriftCounters is the compaction-termination audit: a
// Rebuild must zero the published inserts/deletes drift in the new
// snapshot — a compaction that left stale drift would immediately
// re-trigger itself through driftNeedsCompaction.
func TestRebuildResetsDriftCounters(t *testing.T) {
	keys := make([]uint64, 4000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(keys[i]+1, f.PageOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if err := tr.Delete(keys[i], f.PageOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	m := tr.loadMeta()
	if m.inserts == 0 || m.deletes == 0 {
		t.Fatalf("fixture accrued no drift: inserts=%d deletes=%d", m.inserts, m.deletes)
	}
	if err := tr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	m = tr.loadMeta()
	if m.inserts != 0 || m.deletes != 0 {
		t.Errorf("rebuild left stale drift: inserts=%d deletes=%d, want 0/0", m.inserts, m.deletes)
	}
	if tr.driftNeedsCompaction() {
		t.Error("driftNeedsCompaction still true after rebuild: compaction would loop")
	}
	if got, want := tr.EffectiveFPP(), tr.Options().FPP; got != want {
		t.Errorf("post-rebuild fpp = %g, want design %g", got, want)
	}
}

// TestDisabledModeAccumulatesUntilMaintain pins the disabled policy: no
// inline reclamation at structural changes (limbo grows), and an
// explicit Maintain drains it.
func TestDisabledModeAccumulatesUntilMaintain(t *testing.T) {
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 128))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01,
		Maintenance: MaintenancePolicy{Mode: MaintenanceDisabled}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.StartMaintenance() {
		t.Fatal("disabled mode started a maintainer")
	}
	for round := 0; round < 8; round++ {
		ord := uint64(round * 211 % 2000)
		if err := forceSplit(t, tr, f, keys[ord], keys[ord]+1, ord); err != nil {
			if errors.Is(err, ErrKeyRange) {
				continue
			}
			t.Fatal(err)
		}
	}
	if tr.limboLen.Load() == 0 {
		t.Fatal("structural changes reclaimed inline under MaintenanceDisabled")
	}
	if free := idx.FreePages(); free != 0 {
		t.Fatalf("%d pages reached the free list without maintenance", free)
	}
	// Two explicit passes drain both limbo buckets at quiescence.
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if got := tr.limboLen.Load(); got != 0 {
		t.Errorf("limbo = %d after quiescent Maintain passes, want 0", got)
	}
	st := tr.MaintenanceStats()
	if st.PagesReclaimed == 0 || st.Passes < 2 {
		t.Errorf("stats did not account the explicit passes: %+v", st)
	}
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	if total := idx.Device().NumPages(); live+free != total {
		t.Errorf("page economy leaks: live %d + free %d != device %d", live, free, total)
	}
}

// TestAutoCompactionOnDriftThreshold drives delete drift past the
// configured Equation 14 threshold and waits for the background
// maintainer to compact: MaintenanceStats must record the compaction,
// and the published drift must be back to zero.
func TestAutoCompactionOnDriftThreshold(t *testing.T) {
	f, _ := buildInitialFile(t, 8000)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		Mode:            MaintenanceAuto,
		FPPThreshold:    0.05,
		ReclaimInterval: time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if !tr.MaintenanceStats().Running {
		t.Fatal("auto mode did not start a maintainer")
	}
	// Standard-filter deletes accrue the additive Section 7 drift term;
	// 0.04*8000 = 320 deletes cross the 0.05 threshold. The maintainer
	// may compact mid-loop (later deletes then accrue fresh drift on the
	// rebuilt tree), so the terminal condition is: at least one
	// compaction observed AND the residual drift back under threshold.
	for k := uint64(0); k < 500; k++ {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := tr.MaintenanceStats()
		if st.Compactions > 0 && tr.EffectiveFPP() < 0.05 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	st := tr.MaintenanceStats()
	if st.Compactions == 0 {
		t.Fatalf("maintainer never compacted: %+v", st)
	}
	if fpp := tr.EffectiveFPP(); fpp >= 0.05 {
		t.Errorf("drift not held under threshold after compaction: fpp = %g", fpp)
	}
	// The last compaction zeroed the counters; only deletes issued after
	// it may remain, and they must be strictly fewer than the total.
	if m := tr.loadMeta(); m.deletes >= 500 {
		t.Errorf("compaction left all %d deletes in the snapshot", m.deletes)
	}
	// Probes answer correctly against the compacted tree.
	for k := uint64(0); k < 8000; k += 397 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Errorf("key %d lost through auto-compaction", k)
		}
	}
}

// TestCloseDrainsMaintainer pins the lifecycle: Close stops the
// goroutine, drains limbo at quiescence, and is idempotent; a closed
// tree keeps answering probes.
func TestCloseDrainsMaintainer(t *testing.T) {
	keys := make([]uint64, 2000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 128))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		Mode: MaintenanceAuto,
		// A long interval plus a high threshold: the maintainer sits
		// idle, so the final drain is Close's own doing.
		ReclaimInterval: time.Hour,
		FPPThreshold:    1,
		LimboHighWater:  1 << 30,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.MaintenanceStats().Running {
		t.Fatal("maintainer not running")
	}
	for round := 0; round < 6; round++ {
		ord := uint64(round * 307 % 2000)
		if err := forceSplit(t, tr, f, keys[ord], keys[ord]+1, ord); err != nil && !errors.Is(err, ErrKeyRange) {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.MaintenanceStats()
	if st.Running {
		t.Error("maintainer still running after Close")
	}
	if st.LimboPages != 0 {
		t.Errorf("Close left %d limbo pages on a quiescent tree", st.LimboPages)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	res, err := tr.SearchFirst(keys[42])
	if err != nil || len(res.Tuples) == 0 {
		t.Errorf("closed tree lost key %d: %v", keys[42], err)
	}
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	if total := idx.Device().NumPages(); live+free != total {
		t.Errorf("page economy leaks: live %d + free %d != device %d", live, free, total)
	}
}

// TestMaintainerReclaimsWithoutForegroundStructuralChange is the
// maintenance-layer contract under the race detector: with 4 latched
// writers and 4 readers live, pages retired by one structural change
// must return to the free list through the maintainer alone — driven by
// the probe-completion epoch-exit hook and the ticker, with zero
// further foreground structural changes — and the
// live + free + limbo == device page economy must hold at quiescence.
func TestMaintainerReclaimsWithoutForegroundStructuralChange(t *testing.T) {
	const distinct = 4000
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		Mode:            MaintenanceAuto,
		ReclaimInterval: time.Millisecond,
		FPPThreshold:    1, // isolate reclamation: no drift compaction
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// One structural change populates limbo. In auto mode the foreground
	// writer only requests maintenance, so the pages may only reach the
	// free list through the maintainer.
	if err := forceSplit(t, tr, f, keys[100], keys[100]+1, 100); err != nil {
		t.Fatal(err)
	}
	leavesAfterSetup := tr.NumLeaves()
	if got := tr.MaintenanceStats().StructuralRequests; got == 0 {
		t.Fatal("split did not request maintenance")
	}

	// 4 latched writers re-insert existing claimed keys (guaranteed
	// non-structural) and 4 readers probe; the maintainer must reclaim
	// while they run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
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
				if err := tr.Insert(keys[ord], f.PageOf(uint64(ord))); err != nil {
					errs[w] = err
					return
				}
				i++
			}
		}(w)
	}
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
					errs[4+r] = err
					return
				}
				if len(res.Tuples) == 0 {
					errs[4+r] = errors.New("key vanished")
					return
				}
				i++
			}
		}(r)
	}

	deadline := time.Now().Add(10 * time.Second)
	reclaimed := false
	for time.Now().Before(deadline) {
		if tr.MaintenanceStats().PagesReclaimed > 0 {
			reclaimed = true
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
	if !reclaimed {
		t.Fatalf("maintainer reclaimed nothing in 10s with live readers: %+v", tr.MaintenanceStats())
	}
	if got := tr.NumLeaves(); got != leavesAfterSetup {
		t.Fatalf("leaves went %d -> %d; reclamation was not foreground-free", leavesAfterSetup, got)
	}
	st := tr.MaintenanceStats()
	if st.ProbeWakeups == 0 {
		t.Error("epoch-exit hook never signalled the maintainer")
	}
	if idx.FreePages() == 0 {
		t.Error("no retired pages reached the free list")
	}

	// Quiescence: Close drains the remaining limbo; the page economy
	// must balance.
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
