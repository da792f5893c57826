package core

import (
	"sort"

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
	sort.SliceStable(drifts, func(i, j int) bool { return drifts[i].Total() > drifts[j].Total() })
	if k > len(drifts) {
		k = len(drifts)
	}
	n := 0
	for _, d := range drifts[:k] {
		if d.Total() == 0 {
			break // ranked order: everything after is drift-free too
		}
		if err := t.compactLeafLocked(d.Pid); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// compactLeafLocked rebuilds the leaf at pid where it lies: filters
// sized to its current data-page contents, zero drift, the same page id
// and the same next link, written back in one page-atomic write, and
// the old leaf's drift shed from the global counters in one publish.
// Callers hold the exclusive writeMu and pass a live leaf pid, as the
// maintainer's ranking walk under the same hold does.
//
// No separator or page range moves, so nothing else in the tree
// changes: no latched writer can be inside the leaf under the exclusive
// lock, and a racing probe reads either the old image or the new one,
// which cover the same pages. Like Rebuild, compaction re-derives the
// leaf from the relation, so its key range becomes the keys physically
// present, and logical deletes of tuples still physically present are
// resurrected — the index is approximate in exactly the direction
// probes tolerate. A failed write changes nothing.
func (t *Tree) compactLeafLocked(pid device.PageID) error {
	leaf, err := indexReader{t: t}.leaf(pid)
	if err != nil {
		return err
	}
	fresh, err := t.rebuildLeafContents(leaf)
	if err != nil {
		return err
	}
	fresh.next = leaf.next
	if err := t.writeLeaf(pid, fresh); err != nil {
		return err
	}
	shedIns, shedDel := uint64(leaf.driftIns), uint64(leaf.driftDel)
	t.publish(func(m *treeMeta) {
		m.inserts -= min(m.inserts, shedIns)
		m.deletes -= min(m.deletes, shedDel)
	})
	return nil
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
