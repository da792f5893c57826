package core

import (
	"errors"
	"sort"
	"time"

	"bftree/internal/branch"
	"bftree/internal/device"
)

// This file is the incremental-compaction path: instead of paying one
// whole-tree rebuildLocked stall when Equation 14 drift crosses the
// threshold, the tree rewrites only the leaves that earned the drift.
// Each leaf carries its own drift counters (bfLeaf.driftIns/driftDel,
// charged under the leaf latch in the same page write as the mutation),
// so a partial rebuild can shed exactly the compacted leaves'
// contributions from the global counters and driftNeedsCompaction
// converges without a full reset. DESIGN.md §4 states the contract.

// defaultCompactBatch bounds the leaves rewritten per exclusive-lock
// hold when CompactLeaves runs on a tree whose policy leaves
// IncrementalBatch unset.
const defaultCompactBatch = 8

// LeafDrift is one leaf's share of the tree-wide drift accounting.
type LeafDrift struct {
	Pid     device.PageID
	Inserts uint32 // keys absorbed since the leaf was built or compacted
	Deletes uint32 // associations deleted since then
}

// Total is the leaf's drift contribution used for compaction ranking.
func (d LeafDrift) Total() uint64 { return uint64(d.Inserts) + uint64(d.Deletes) }

// DriftByLeaf walks the leaf chain of the current snapshot and returns
// every leaf's drift counters, in chain order. It runs lock-free under
// the epoch scheme, like any probe; the answer is a consistent snapshot
// of each leaf but may trail concurrent writers. The sum of the
// returned counters equals the published global drift at quiescence —
// the invariant the race tests assert.
func (t *Tree) DriftByLeaf() ([]LeafDrift, error) {
	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	return t.driftWalk(m)
}

// driftWalk is DriftByLeaf's body; callers either hold the exclusive
// writeMu (maintenance ranking) or are registered as epoch readers.
func (t *Tree) driftWalk(m *treeMeta) ([]LeafDrift, error) {
	var out []LeafDrift
	pid := m.firstLeaf
	for pid != device.InvalidPage {
		l, err := indexReader{t: t}.leaf(pid)
		if err != nil {
			return nil, err
		}
		out = append(out, LeafDrift{Pid: pid, Inserts: l.driftIns, Deletes: l.driftDel})
		pid = l.next
	}
	return out, nil
}

// CompactLeaves rebuilds the named leaves from their data pages — fresh
// pages, filters sized to current contents, zero drift — holding the
// exclusive writer lock only per bounded batch of k leaves
// (MaintenancePolicy.IncrementalBatch, or defaultCompactBatch when the
// policy leaves it 0), so latched writers run between batches instead
// of stalling for one whole-tree rebuild. Stale pids — a leaf that a
// concurrent (earlier-batch) split, rebuild, or compaction already
// retired — are skipped, not errors: the method reports how many leaves
// it actually compacted. The global drift counters are decremented by
// exactly the compacted leaves' contributions.
//
// Like Rebuild, compaction re-derives a leaf from the relation, so
// logical deletes of tuples still physically present are resurrected —
// the index is approximate in exactly the direction probes tolerate.
func (t *Tree) CompactLeaves(pids []device.PageID) (int, error) {
	k := t.opts.Maintenance.IncrementalBatch
	if k <= 0 {
		k = defaultCompactBatch
	}
	n := 0
	for start := 0; start < len(pids); start += k {
		batch := pids[start:min(start+k, len(pids))]
		t.writeMu.Lock()
		begin := time.Now()
		bn, err := t.compactBatchLocked(batch)
		n += bn
		if bn > 0 {
			t.maintStats.leavesCompacted.Add(uint64(bn))
			t.maintStats.recordCompactionStall(time.Since(begin))
		}
		t.maintRequest()
		t.writeMu.Unlock()
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// compactBatchLocked compacts one bounded batch; callers hold the
// exclusive writeMu.
func (t *Tree) compactBatchLocked(pids []device.PageID) (int, error) {
	n := 0
	for _, pid := range pids {
		ok, err := t.compactLeafLocked(pid)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// compactIncrementalLocked is the maintainer's selection policy: rank
// every leaf by drift contribution and compact the top k. Callers hold
// the exclusive writeMu. The ranking walk reads only leaf pages —
// O(numLeaves) cached page reads, a small fraction of the whole-file
// scan a full rebuild pays — and happens under the same lock hold as
// the batch, so the reported stall covers selection too.
func (t *Tree) compactIncrementalLocked(k int) (int, error) {
	drifts, err := t.driftWalk(t.loadMeta())
	if err != nil {
		return 0, err
	}
	sort.Slice(drifts, func(i, j int) bool { return drifts[i].Total() > drifts[j].Total() })
	if k > len(drifts) {
		k = len(drifts)
	}
	n := 0
	for _, d := range drifts[:k] {
		if d.Total() == 0 {
			break // ranked order: everything after is drift-free too
		}
		ok, err := t.compactLeafLocked(d.Pid)
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// compactLeafLocked rebuilds one leaf in place in the tree: fresh page,
// filters sized to its current data-page contents, chain and parent
// relinked page-atomically, the old page retired into epoch limbo, and
// the old leaf's drift shed from the global counters. Callers hold the
// exclusive writeMu. It reports false (no error) for pids that are not
// currently live leaves — already compacted, split, or recycled — so
// callers can hand it a ranking computed before the lock was taken.
//
// Unlike a split, no separator changes: the parent keeps its keys and
// swaps one child pointer, so the relink is a single in-place
// page-atomic write instead of a copy-on-write path — a racing probe
// reads either the old or the new parent image, and both route to a
// leaf claiming the same keys (the old leaf stays frozen in limbo
// until every reader drains).
func (t *Tree) compactLeafLocked(pid device.PageID) (bool, error) {
	r := indexReader{t: t}
	leaf, err := r.leaf(pid)
	if err != nil {
		return false, nil // not a decodable leaf: stale pid, skip
	}
	if leaf.minKey > leaf.maxKey {
		return false, nil // empty sentinel leaf: nothing to rebuild
	}
	m := t.loadMeta()
	var path []branch.Frame
	if m.height == 1 {
		if m.root != pid {
			return false, nil
		}
	} else {
		// Liveness check: the leaf covering its own min key must still
		// be this page. Insert routing matches how separators are
		// derived (a separator is its right leaf's min key), so a live
		// leaf always descends to itself; a retired one does not.
		curPid, _, _, err := r.descend(m.root, leaf.minKey, true, &path)
		if err != nil {
			return false, err
		}
		if curPid != pid {
			return false, nil // stale: the leaf was replaced since ranking
		}
	}

	fresh, err := t.rebuildLeafContents(leaf)
	if err != nil {
		return false, err
	}
	fresh.next = leaf.next
	newPid := t.store.Allocate(1)
	if err := t.writeLeaf(newPid, fresh); err != nil {
		t.store.Free(newPid) // never linked: immediately reusable
		return false, err
	}

	// Chain relink first: after it, scans reach the new leaf while
	// descents still reach the old one — both claim the same keys, so
	// the transient is consistent — and a failure before the parent
	// relink leaves the new page unreferenced and immediately freeable.
	predPid, err := t.predecessorLeaf(path)
	if err != nil {
		t.store.Free(newPid)
		return false, err
	}
	relinked := false
	var pred *bfLeaf
	if predPid != device.InvalidPage {
		pred, err = r.leaf(predPid)
		if err != nil {
			t.store.Free(newPid)
			return false, err
		}
		pred.next = newPid
		if err := t.writeLeaf(predPid, pred); err != nil {
			t.store.Free(newPid)
			return false, err
		}
		relinked = true
	}

	// Parent relink (or root swap): the single structural pointer moves.
	if len(path) > 0 {
		f := path[len(path)-1]
		f.Node.Children[f.Slot] = newPid
		buf := make([]byte, t.store.PageSize())
		perr := branch.Encode(buf, f.Node)
		if perr == nil {
			perr = t.store.WritePage(f.Pid, buf)
		}
		if perr != nil {
			// Undo the chain relink so the new page really is
			// unreferenced before freeing it. A failure here too leaves
			// the tree consistent (old leaf serves both paths) but leaks
			// newPid — the double-fault case the page economy accepts.
			if relinked {
				pred.next = pid
				if rerr := t.writeLeaf(predPid, pred); rerr != nil {
					return false, errors.Join(perr, rerr)
				}
			}
			t.store.Free(newPid)
			return false, perr
		}
	}

	shedIns, shedDel := uint64(leaf.driftIns), uint64(leaf.driftDel)
	t.publish(func(mm *treeMeta) {
		if len(path) == 0 {
			mm.root = newPid
		}
		if mm.firstLeaf == pid {
			mm.firstLeaf = newPid
		}
		mm.inserts -= min(mm.inserts, shedIns)
		mm.deletes -= min(mm.deletes, shedDel)
	})
	t.retire(pid)
	return true, nil
}

// rebuildLeafContents re-derives one leaf from its data pages: exactly
// the keys physically present in [minPid, maxPid] (clamped to the file's
// tail for a still-growing tail leaf) that fall inside the leaf's key
// range and the tree's partition. The page span is preserved even when
// boundary pages hold no in-range keys, so neighboring leaves' coverage
// and future in-range inserts are unaffected; the filters are rebuilt
// from scratch at the size the current contents need, which is what
// restores the design fpp.
func (t *Tree) rebuildLeafContents(leaf *bfLeaf) (*bfLeaf, error) {
	last := t.lastDataPage()
	owned := t.part.keys(leaf.minKey, leaf.maxKey)
	pages := make([]pageKeys, 0, leaf.numPages())
	var tuples [][]byte
	for pid := leaf.minPid; pid <= leaf.maxPid; pid++ {
		pk := pageKeys{pid: pid}
		if pid <= last {
			var err error
			if tuples, err = t.file.AppendMatches(tuples[:0], pid, t.fieldIdx, owned); err != nil {
				return nil, err
			}
			for _, tup := range tuples {
				k := t.file.Schema().Get(tup, t.fieldIdx)
				if len(pk.keys) == 0 || pk.keys[len(pk.keys)-1] != k {
					pk.keys = append(pk.keys, k)
				}
			}
		}
		pages = append(pages, pk)
	}
	return buildLeaf(pages, t.opts, t.geo)
}
