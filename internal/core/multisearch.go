package core

import (
	"sort"

	"bftree/internal/device"
)

// MultiSearch answers a batch of point lookups in one pass: it sorts
// and dedups the keys, descends once per key through a per-batch cache
// of decoded index pages (adjacent keys share their root-to-leaf path,
// so the cache turns n descents into little more than one), probes each
// BF-leaf's filters once per key that lands on it, and fetches every
// flagged data page exactly once even when several keys want it.
//
// Accounting: IndexReads counts distinct index pages decoded for the
// batch (the shared-descent savings the batched-probe experiment
// measures); BFProbes and CandidatePages accumulate per key exactly as
// n individual Search calls would; DataPagesRead counts distinct data
// pages fetched; FalseReads counts fetched pages yielding no match for
// any batch key. Tuples are returned in page order (grouped by data
// page, not by probe key); every tuple whose indexed field equals any
// batch key appears exactly once.
//
// The whole batch runs under one reader registration, so it observes a
// single consistent snapshot.
func (t *Tree) MultiSearch(keys []uint64) (*Result, error) {
	res := &Result{}
	if len(keys) == 0 {
		return res, nil
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[n-1] {
			sorted[n] = k
			n++
		}
	}
	sorted = sorted[:n]
	batch := make(map[uint64]bool, n)
	for _, k := range sorted {
		batch[k] = true
	}

	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	cache := &nodeCache{
		t:      t,
		nodes:  make(map[device.PageID][]byte),
		leaves: make(map[device.PageID]*bfLeaf),
	}
	// Phase 1: index side. Collect the union of flagged data pages.
	wanted := make(map[device.PageID]bool)
	last := t.lastDataPage()
	for _, key := range sorted {
		if err := t.multiProbeKey(m.root, key, cache, wanted, last, &res.Stats); err != nil {
			return nil, err
		}
	}
	// Phase 2: data side. Read each flagged page once, ascending (the
	// sorted access list of Algorithm 1, now shared across the batch).
	pages := make([]device.PageID, 0, len(wanted))
	for pid := range wanted {
		pages = append(pages, pid)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, pid := range pages {
		tuples, err := t.file.ReadPageTuples(pid)
		if err != nil {
			return nil, err
		}
		res.Stats.DataPagesRead++
		matched := false
		for _, tup := range tuples {
			// Bloom filters have no false negatives, so a batch key's
			// tuples always lie on pages its own probe flagged; matching
			// against the batch set equals per-key matching.
			if batch[t.file.Schema().Get(tup, t.fieldIdx)] {
				cp := make([]byte, len(tup))
				copy(cp, tup)
				res.Tuples = append(res.Tuples, cp)
				matched = true
			}
		}
		if !matched {
			res.Stats.FalseReads++
		}
	}
	return res, nil
}

// multiProbeKey runs the index part of Algorithm 1 for one key against
// the batch cache: cached descent, separator skip-forward, and the
// duplicate-following leaf walk of search, adding flagged pages to
// wanted instead of fetching them.
func (t *Tree) multiProbeKey(root device.PageID, key uint64, cache *nodeCache,
	wanted map[device.PageID]bool, last device.PageID, stats *ProbeStats) error {
	leaf, err := cache.descend(root, key, stats)
	if err != nil {
		return err
	}
	for key > leaf.maxKey && leaf.next != device.InvalidPage {
		nl, err := cache.leaf(leaf.next, stats)
		if err != nil {
			return err
		}
		if key < nl.minKey {
			return nil
		}
		leaf = nl
	}
	for {
		if key < leaf.minKey || key > leaf.maxKey {
			return nil
		}
		matches := leaf.probe(key)
		stats.BFProbes += leaf.numBFs()
		for _, bid := range matches {
			lo, hi := leaf.pageRangeOf(bid)
			if hi > last {
				hi = last
			}
			for pid := lo; pid <= hi; pid++ {
				stats.CandidatePages++
				wanted[pid] = true
			}
		}
		if leaf.next == device.InvalidPage {
			return nil
		}
		nl, err := cache.leaf(leaf.next, stats)
		if err != nil {
			return err
		}
		if key < nl.minKey || key > nl.maxKey {
			return nil
		}
		leaf = nl
	}
}

// nodeCache memoizes index pages for the lifetime of one batch: the
// images of internal nodes, routed in place, and decoded leaves.
// IndexReads is charged only on a miss, so the stat reflects distinct
// index pages touched — the quantity a buffer pool would serve.
type nodeCache struct {
	t      *Tree
	nodes  map[device.PageID][]byte
	leaves map[device.PageID]*bfLeaf
}

// descend is Tree.descend through the cache.
func (c *nodeCache) descend(root device.PageID, key uint64, stats *ProbeStats) (*bfLeaf, error) {
	pid := root
	for {
		if buf, ok := c.nodes[pid]; ok {
			_, next, err := route(buf, key, false)
			if err != nil {
				return nil, err
			}
			pid = next
			continue
		}
		if l, ok := c.leaves[pid]; ok {
			return l, nil
		}
		buf, err := c.t.store.ReadPage(pid)
		if err != nil {
			return nil, err
		}
		stats.IndexReads++
		kind, err := nodeKind(buf)
		if err != nil {
			return nil, err
		}
		if kind == nodeBFLeaf {
			l, err := decodeBFLeaf(buf)
			if err != nil {
				return nil, err
			}
			c.leaves[pid] = l
			return l, nil
		}
		_, next, err := route(buf, key, false)
		if err != nil {
			return nil, err
		}
		c.nodes[pid] = buf
		pid = next
	}
}

// leaf is Tree.readLeaf through the cache.
func (c *nodeCache) leaf(pid device.PageID, stats *ProbeStats) (*bfLeaf, error) {
	if l, ok := c.leaves[pid]; ok {
		return l, nil
	}
	l, err := c.t.readLeaf(pid, stats)
	if err != nil {
		return nil, err
	}
	c.leaves[pid] = l
	return l, nil
}
