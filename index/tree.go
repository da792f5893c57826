package index

import (
	"bftree/internal/bptree"
	"bftree/internal/heapfile"
)

// exactTree is what the shared query path asks of an exact tree
// backend (bptree, fdtree): a streaming range cursor, and a batched
// point lookup whose groups come back in ascending key order with the
// index pages the batch read.
type exactTree[C refCursor] interface {
	Scan(lo, hi uint64) (C, error)
	MultiSearch(keys []uint64) ([]bptree.KeyRefs, int, error)
}

// treeIndex is the query path of the exact tree backends: probe the
// tree for tuple references, then fetch the referenced data pages into
// the shared Result shape. In the one-entry-per-key layout (dedup) the
// probe locates the first occurrence and the fetch scans forward
// through the duplicates (Section 6.3). Each backend embeds it and adds
// only its own Stats, Insert and capabilities.
type treeIndex[C refCursor, T exactTree[C]] struct {
	tree     T
	file     *heapfile.File
	fieldIdx int
	dedup    bool
}

func (ix *treeIndex[C, T]) Search(key uint64) (*Result, error)      { return ix.search(key, false) }
func (ix *treeIndex[C, T]) SearchFirst(key uint64) (*Result, error) { return ix.search(key, true) }

// search is a batch of one key.
func (ix *treeIndex[C, T]) search(key uint64, firstOnly bool) (*Result, error) {
	groups, reads, err := ix.tree.MultiSearch([]uint64{key})
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: ProbeStats{IndexReads: reads}}
	if len(groups) == 0 {
		return res, nil
	}
	if err := fetchPoint(ix.file, ix.fieldIdx, key, groups[0].Refs, ix.dedup, firstOnly, res); err != nil {
		return nil, err
	}
	return res, nil
}

func (ix *treeIndex[C, T]) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams the tree's range cursor. Per tuple, the reference stream
// is resolved page by page as the consumer pulls, so index pages past
// an early Close are never read. In the one-entry-per-key layout the
// cursor only locates the range's first occurrence and an ordered page
// scan takes over.
func (ix *treeIndex[C, T]) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	c, err := ix.tree.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	f := newFetcher(ix.file, ix.fieldIdx)
	if !ix.dedup {
		return newRefIter(f, c, heapfile.Keys{Lo: lo, Hi: hi}), nil
	}
	defer c.Close()
	if !c.Next() {
		if err := c.Err(); err != nil {
			return nil, err
		}
		return &emptyIter{stats: ProbeStats{IndexReads: c.Reads()}}, nil
	}
	return newOrderedIter(f, c.Ref().Page, lo, hi, ProbeStats{IndexReads: c.Reads()}), nil
}

// MultiSearch shares the tree's page reads across the sorted batch and
// reads each flagged data page once.
func (ix *treeIndex[C, T]) MultiSearch(keys []uint64) (*Result, error) {
	groups, reads, err := ix.tree.MultiSearch(keys)
	if err != nil {
		return nil, err
	}
	return multiSearchGroups(ix.file, ix.fieldIdx, groups, ix.dedup, ProbeStats{IndexReads: reads})
}

func (ix *treeIndex[C, T]) Close() error { return nil }
