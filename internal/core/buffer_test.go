package core

import (
	"sync"
	"testing"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

func TestBufferedInsertMatchesDirect(t *testing.T) {
	// Two identical trees over the same data: one takes direct inserts,
	// one buffered. After flush, both must answer identically.
	f, _ := buildInitialFile(t, 4000)
	direct, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buffered, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buf := buffered.NewBufferedInserter(64)

	// Re-insert a spread of existing keys (update workload).
	for k := uint64(0); k < 4000; k += 3 {
		pid := f.PageOf(k)
		if err := direct.Insert(k, pid); err != nil {
			t.Fatal(err)
		}
		if err := buf.Insert(k, pid); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4000; k += 97 {
		a, err := direct.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buffered.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Tuples) != len(c.Tuples) {
			t.Fatalf("key %d: direct %d vs buffered %d", k, len(a.Tuples), len(c.Tuples))
		}
	}
	if direct.EffectiveFPP() != buffered.EffectiveFPP() {
		t.Errorf("drift accounting diverged: %g vs %g", direct.EffectiveFPP(), buffered.EffectiveFPP())
	}
}

func TestBufferedInsertAmortizesWrites(t *testing.T) {
	f, _ := buildInitialFile(t, 4000)
	dev := device.New(device.Memory, 4096)
	tr, err := BulkLoad(pagestore.New(dev), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	dev.ResetStats()
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	directWrites := dev.Stats().Writes()

	tr2, err := BulkLoad(pagestore.New(dev), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buf := tr2.NewBufferedInserter(n + 1)
	dev.ResetStats()
	for k := uint64(0); k < n; k++ {
		if err := buf.Insert(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	bufferedWrites := dev.Stats().Writes()
	if bufferedWrites*10 > directWrites {
		t.Errorf("buffered flush wrote %d pages vs %d direct; expected >=10x amortization",
			bufferedWrites, directWrites)
	}
}

// TestFlushRunsLatchedAlongsideWriters pins the batch-escalation tier
// of Flush: leaf groups run under the shared lock plus per-leaf latches,
// so a flush interleaves with latched writers — including ones that
// force escalated splits — without corrupting drift accounting or
// losing entries. The old Flush held the exclusive lock for the whole
// batch; this test also drives the escalation path inside Flush itself
// (new keys landing on leaves pushed to their Equation 5 capacity).
func TestFlushRunsLatchedAlongsideWriters(t *testing.T) {
	const distinct = 6000
	// Sparse even keys leave odd keys free as genuinely new inserts.
	keys := make([]uint64, distinct)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	// Small index pages keep leaf capacity low so the flush's new keys
	// push leaves past capacity and escalate per-group.
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 512)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}

	// The flusher buffers new odd keys across the first half of the
	// keyspace; concurrent latched writers re-insert existing even keys
	// in the second half (guaranteed non-structural, disjoint leaves).
	buf := tr.NewBufferedInserter(1 << 20)
	flushed := make([]uint64, 0, distinct/4)
	for i := 0; i < distinct/2; i += 2 {
		k := keys[i] + 1
		if err := buf.Insert(k, f.PageOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
		flushed = append(flushed, k)
	}

	var wg sync.WaitGroup
	errs := make([]error, 4)
	stop := make(chan struct{})
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
				ord := distinct/2 + (i*131+w*977)%(distinct/2)
				if err := tr.Insert(keys[ord], f.PageOf(uint64(ord))); err != nil {
					errs[w] = err
					return
				}
				i++
			}
		}(w)
	}
	flushErr := buf.Flush()
	close(stop)
	wg.Wait()
	if flushErr != nil {
		t.Fatalf("flush: %v", flushErr)
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("latched writer %d: %v", w, err)
		}
	}
	if buf.Pending() != 0 {
		t.Fatalf("flush left %d entries pending without an error", buf.Pending())
	}
	// Every flushed key is durable: its data page is a candidate. Some
	// keys may legitimately fail candidacy only if a probe-based split
	// re-shaped a half past the key's page — with re-inserted even keys
	// as the only concurrent writers, no such split touches these leaves
	// beyond the flush's own escalations, which preserve claims.
	for j, k := range flushed {
		if j%23 != 0 {
			continue
		}
		var stats ProbeStats
		pages, err := tr.candidatePages(k, &stats)
		if err != nil {
			t.Fatal(err)
		}
		want := f.PageOf(k / 2)
		found := false
		for _, p := range pages {
			if p == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("flushed key %d lost: page %d not a candidate", k, want)
		}
	}
	if tr.NumLeaves() < 2 {
		t.Error("fixture produced a single leaf; escalation path not exercised")
	}
}

func TestBufferedSearchSeesPending(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buf := tr.NewBufferedInserter(1 << 20) // never auto-flush
	key := uint64(555)
	if err := buf.Insert(key, f.PageOf(key)); err != nil {
		t.Fatal(err)
	}
	if buf.Pending() != 1 {
		t.Fatalf("pending = %d", buf.Pending())
	}
	res, err := buf.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Error("buffered key invisible through the inserter")
	}
}

// TestBufferedSearchChargesLikeFlushed: the inserter charges a buffered
// page as the probe charges a flagged one, so a search for a key
// buffered on a page that does not hold it reports the same counts
// before and after the Flush that indexes the page.
func TestBufferedSearchChargesLikeFlushed(t *testing.T) {
	f, _ := buildInitialFile(t, 10000)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(5000)
	next := f.PageOf(key) + 1
	leaf, _, _, err := tr.descendPath(key, true)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.granularity != 1 || next > leaf.maxPid {
		t.Fatalf("fixture: page %d must have its own filter in the key's leaf [%d,%d] (granularity %d)",
			next, leaf.minPid, leaf.maxPid, leaf.granularity)
	}
	if res, err := tr.Search(key); err != nil || res.Stats.CandidatePages != 1 {
		t.Fatalf("fixture: the probe must flag only the key's own page: %+v (err %v)", res.Stats, err)
	}

	buf := tr.NewBufferedInserter(1 << 20)
	if err := buf.Insert(key, next); err != nil {
		t.Fatal(err)
	}
	pending, err := buf.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed, err := buf.Search(key)
	if err != nil {
		t.Fatal(err)
	}
	if pending.Stats != flushed.Stats {
		t.Errorf("buffered search %+v, after Flush %+v", pending.Stats, flushed.Stats)
	}
	if s := flushed.Stats; s.CandidatePages != 2 || s.DataPagesRead != 2 || s.FalseReads != 1 {
		t.Errorf("after Flush %+v, want 2 candidate pages, 2 data pages read, 1 false read", s)
	}
	if len(pending.Tuples) != 1 || len(flushed.Tuples) != 1 {
		t.Errorf("tuples: %d buffered, %d after Flush, want 1", len(pending.Tuples), len(flushed.Tuples))
	}
}

func TestBufferedAutoFlush(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	buf := tr.NewBufferedInserter(8)
	for k := uint64(0); k < 20; k++ {
		if err := buf.Insert(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Pending() >= 8 {
		t.Errorf("auto-flush did not run, pending = %d", buf.Pending())
	}
	// Zero capacity defaults sanely.
	b2 := tr.NewBufferedInserter(0)
	if b2.capacity < 1 {
		t.Error("capacity default broken")
	}
	// Flushing an empty buffer is a no-op.
	if err := b2.Flush(); err != nil {
		t.Fatal(err)
	}
}
