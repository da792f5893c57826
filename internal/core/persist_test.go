package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

func TestMarshalMetaOpenRoundTrip(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3, Granularity: 2})
	// Drift some state so all counters round-trip.
	if err := tr.Delete(5, fx.file.PageOf(5)); err != nil {
		t.Fatal(err)
	}
	meta := tr.MarshalMeta()

	back, err := Open(fx.idxStore, fx.file, meta)
	if err != nil {
		t.Fatal(err)
	}
	if back.Height() != tr.Height() || back.NumLeaves() != tr.NumLeaves() ||
		back.NumNodes() != tr.NumNodes() || back.NumKeys() != tr.NumKeys() {
		t.Fatalf("geometry mismatch: %s vs %s", back, tr)
	}
	if back.Options().FPP != 1e-3 || back.Options().Granularity != 2 {
		t.Errorf("options mismatch: %+v", back.Options())
	}
	if back.EffectiveFPP() != tr.EffectiveFPP() {
		t.Error("drift counters lost")
	}
	// The reopened tree must answer probes identically.
	for k := uint64(0); k < 20000; k += 1111 {
		a, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tuples) != len(b.Tuples) {
			t.Fatalf("key %d: %d vs %d tuples after reopen", k, len(a.Tuples), len(b.Tuples))
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	fx := newFixture(t, 1000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-2})
	meta := tr.MarshalMeta()

	if _, err := Open(fx.idxStore, fx.file, meta[:10]); err == nil {
		t.Error("short metadata accepted")
	}
	bad := append([]byte(nil), meta...)
	bad[0] = 'X'
	if _, err := Open(fx.idxStore, fx.file, bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Field index beyond the schema.
	bad = append([]byte(nil), meta...)
	bad[81] = 99
	if _, err := Open(fx.idxStore, fx.file, bad); err == nil {
		t.Error("out-of-schema field accepted")
	}
	// Root pointing at an unallocated page.
	bad = append([]byte(nil), meta...)
	bad[21] = 0xff
	bad[22] = 0xff
	if _, err := Open(fx.idxStore, fx.file, bad); err == nil {
		t.Error("dangling root accepted")
	}
}

func TestRebuildClearsDrift(t *testing.T) {
	fx := newFixture(t, 10000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3})
	base := tr.EffectiveFPP()
	for k := uint64(0); k < 500; k++ {
		if err := tr.Delete(k, fx.file.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.EffectiveFPP() <= base {
		t.Fatal("deletes should have drifted the fpp")
	}
	if err := tr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if got := tr.EffectiveFPP(); got != base {
		t.Errorf("rebuild fpp = %g, want design %g", got, base)
	}
	// Probes still work against the rebuilt pages.
	for k := uint64(0); k < 10000; k += 997 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d lost by rebuild", k)
		}
	}
}

// TestRebuildDeviceBounded pins the contiguous free-list contract: a
// Rebuild retires the whole old tree, Maintain reclaims it into the
// store's free list as coalesced runs, and the next Rebuild's bulk
// allocations are carved from those runs. The index device therefore
// stays bounded — roughly two tree footprints — across arbitrarily many
// rebuilds, instead of growing by one footprint per compaction.
func TestRebuildDeviceBounded(t *testing.T) {
	fx := newFixture(t, 20000, 11)
	tr := fx.build(t, 0, Options{FPP: 1e-3})
	footprint := tr.NumNodes()

	if err := tr.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	// After one rebuild+reclaim cycle the device holds the live tree
	// plus the (now free) old one; that is the steady-state bound.
	bound := fx.idxStore.Device().NumPages()

	for i := 0; i < 6; i++ {
		if err := tr.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Maintain(); err != nil {
			t.Fatal(err)
		}
		if got := fx.idxStore.Device().NumPages(); got > bound {
			t.Fatalf("rebuild %d grew the device to %d pages (bound %d, tree footprint %d)",
				i+1, got, bound, footprint)
		}
	}
	// The reclaimed footprint must sit in coalesced runs large enough to
	// serve the next bulk load, not as single-page fragments.
	if runs, largest := fx.idxStore.FreeRuns(); largest < int(footprint) {
		t.Errorf("largest free run %d < tree footprint %d across %d runs",
			largest, footprint, runs)
	}
	// Nothing leaked: live + free + limbo covers the device.
	live := tr.NumNodes()
	inLimbo := uint64(tr.limboLen.Load())
	total := fx.idxStore.Device().NumPages()
	if live+uint64(fx.idxStore.FreePages())+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, fx.idxStore.FreePages(), inLimbo, total)
	}
}

// FuzzOpenMeta feeds Open arbitrary metadata blobs over a freshly built
// index. No blob may panic; a rejected blob must fail with ErrCorrupt
// or ErrOptions; an accepted blob's tree must re-marshal to a blob that
// reopens to the same bytes. The seed corpus — a valid blob, each of
// its truncations, and each single-byte flip (flipping a root-pid byte
// leaves the root dangling past the device) — runs under plain go test.
func FuzzOpenMeta(f *testing.F) {
	syn, err := workload.GenerateSynthetic(pagestore.New(device.New(device.Memory, 4096)), 3000, 11, 1)
	if err != nil {
		f.Fatal(err)
	}
	// Every input gets its own index store: an auto-maintenance blob
	// starts a maintainer that may compact, rewriting pages.
	build := func(tb testing.TB) (*pagestore.Store, []byte) {
		store := pagestore.New(device.New(device.Memory, 4096))
		tr, err := BulkLoad(store, syn.File, 0, Options{FPP: 1e-2})
		if err != nil {
			tb.Fatal(err)
		}
		tr.Close()
		return store, tr.MarshalMeta()
	}
	_, valid := build(f)
	f.Add(valid)
	for n := range valid {
		f.Add(valid[:n])
	}
	for i := range valid {
		flipped := slices.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		store, _ := build(t)
		tr, err := Open(store, syn.File, blob)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOptions) {
				t.Fatalf("rejected with %v, want ErrCorrupt or ErrOptions", err)
			}
			return
		}
		tr.Close()
		again := tr.MarshalMeta()
		back, err := Open(store, syn.File, again)
		if err != nil {
			t.Fatalf("re-marshaled blob rejected: %v", err)
		}
		back.Close()
		// A maintainer that compacted between reopen and Close changed
		// the tree itself; only an untouched tree must match.
		st := back.MaintenanceStats()
		if st.Compactions+st.IncrementalPasses+st.CompactionFailures > 0 {
			return
		}
		if got := back.MarshalMeta(); !bytes.Equal(got, again) {
			t.Fatalf("reopened blob differs:\n got %x\nwant %x", got, again)
		}
	})
}
