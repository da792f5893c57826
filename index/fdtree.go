package index

import (
	"bftree/internal/fdtree"
	"bftree/internal/heapfile"
)

func init() {
	Register(Backend{
		Name: "fdtree",
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			entries, err := layoutEntries(file, fieldIdx, opts.DedupKeys)
			if err != nil {
				return nil, err
			}
			tr, err := fdtree.BulkLoad(store, entries, opts.FDTree)
			if err != nil {
				return nil, err
			}
			return &fdIndex{tree: tr, store: store, file: file, fieldIdx: fieldIdx, dedup: opts.DedupKeys}, nil
		},
	})
}

// fdIndex adapts the FD-Tree comparator: the fractional-cascade search
// (one run page per on-device level) yields tuple references, which the
// shared fetch path resolves into the Result shape. Beyond Index it
// implements Flusher (the memory-resident head tree).
type fdIndex struct {
	tree     *fdtree.Tree
	store    *Store
	file     *heapfile.File
	fieldIdx int
	dedup    bool
}

func (ix *fdIndex) Search(key uint64) (*Result, error)      { return ix.search(key, false) }
func (ix *fdIndex) SearchFirst(key uint64) (*Result, error) { return ix.search(key, true) }

func (ix *fdIndex) search(key uint64, firstOnly bool) (*Result, error) {
	refs, sstats, err := ix.tree.Search(key)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: ProbeStats{IndexReads: sstats.PagesRead}}
	if len(refs) == 0 {
		return res, nil
	}
	if ix.dedup {
		err = fetchPointOrdered(ix.file, ix.fieldIdx, key, refs[0].Page, firstOnly, res)
	} else {
		err = fetchPointRefs(ix.file, ix.fieldIdx, key, refs, firstOnly, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (ix *fdIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams the k-way merge over the head tree and per-level run
// cursors; opening pays each run's binary-search positioning, after
// which run and data pages are read only as the consumer pulls.
func (ix *fdIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	c, err := ix.tree.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	if !ix.dedup {
		return newRefIter(newFetcher(ix.file, ix.fieldIdx), &fdRefs{c: c}, inRange(lo, hi)), nil
	}
	if !c.Next() {
		reads := c.Stats().PagesRead
		errScan := c.Err()
		c.Close()
		if errScan != nil {
			return nil, errScan
		}
		return &emptyIter{stats: ProbeStats{IndexReads: reads}}, nil
	}
	start := c.Ref().Page
	reads := c.Stats().PagesRead
	c.Close()
	return newOrderedIter(newFetcher(ix.file, ix.fieldIdx), start,
		inRange(lo, hi), beyondHi(hi), ProbeStats{IndexReads: reads}), nil
}

// MultiSearch shares run-page reads across the sorted batch through the
// fractional cascade and reads each flagged data page once.
func (ix *fdIndex) MultiSearch(keys []uint64) (*Result, error) {
	groups, sstats, err := ix.tree.MultiSearch(keys)
	if err != nil {
		return nil, err
	}
	return multiSearchGroups(ix.file, ix.fieldIdx, groups, ix.dedup,
		ProbeStats{IndexReads: sstats.PagesRead})
}

func (ix *fdIndex) Stats() Stats {
	pageSize := uint64(ix.store.PageSize())
	size := ix.tree.SizeBytes()
	return Stats{
		Backend:   "fdtree",
		Pages:     size / pageSize,
		SizeBytes: size,
		Height:    ix.tree.Levels() + 1, // head tree + on-device runs
		Entries:   ix.tree.NumRecords(),
	}
}

func (ix *fdIndex) Close() error { return nil }

func (ix *fdIndex) Insert(key uint64, ref Ref) error { return ix.tree.Insert(key, ref) }

// Flush forces the memory-resident head tree's records onto the device
// through the merge cascade.
func (ix *fdIndex) Flush() error { return ix.tree.FlushHead() }
