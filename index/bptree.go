package index

import (
	"bftree/internal/bptree"
	"bftree/internal/heapfile"
)

func init() {
	Register(Backend{
		Name: "bptree",
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			entries, err := layoutEntries(file, fieldIdx, opts.DedupKeys)
			if err != nil {
				return nil, err
			}
			tr, err := bptree.BulkLoad(store, entries, 1.0)
			if err != nil {
				return nil, err
			}
			return &bpIndex{tree: tr, file: file, fieldIdx: fieldIdx, dedup: opts.DedupKeys}, nil
		},
	})
}

// layoutEntries builds the entry list of an exact tree backend: one per
// tuple (PK layout) or one per distinct key (the paper's deduplicated
// baseline for ordered non-unique attributes).
func layoutEntries(file *heapfile.File, fieldIdx int, dedup bool) ([]bptree.Entry, error) {
	if dedup {
		return bptree.DedupEntries(file, fieldIdx)
	}
	return bptree.PKEntries(file, fieldIdx)
}

// bpIndex adapts the B+-Tree baseline: probe the tree for tuple
// references, then fetch the referenced data pages into the shared
// Result shape. In dedup mode the probe locates the first occurrence
// and the fetch scans forward through the duplicates (Section 6.3). It
// implements Warmable beyond Index.
type bpIndex struct {
	tree     *bptree.Tree
	file     *heapfile.File
	fieldIdx int
	dedup    bool
}

func (ix *bpIndex) Search(key uint64) (*Result, error)      { return ix.search(key, false) }
func (ix *bpIndex) SearchFirst(key uint64) (*Result, error) { return ix.search(key, true) }

func (ix *bpIndex) search(key uint64, firstOnly bool) (*Result, error) {
	refs, idxReads, err := ix.tree.SearchStats(key)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: ProbeStats{IndexReads: idxReads}}
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

func (ix *bpIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams the leaf-sibling walk: in dedup mode the cursor only
// locates the range's first occurrence and an ordered page scan takes
// over; otherwise the reference stream is resolved page by page as the
// consumer pulls, so leaf-chain links past an early Close are never
// read.
func (ix *bpIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	c, err := ix.tree.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	if !ix.dedup {
		return newRefIter(newFetcher(ix.file, ix.fieldIdx), &bpRefs{c: c}, inRange(lo, hi)), nil
	}
	if !c.Next() {
		reads := c.Reads()
		errScan := c.Err()
		c.Close()
		if errScan != nil {
			return nil, errScan
		}
		return &emptyIter{stats: ProbeStats{IndexReads: reads}}, nil
	}
	start := c.Entry().Ref.Page
	reads := c.Reads()
	c.Close()
	return newOrderedIter(newFetcher(ix.file, ix.fieldIdx), start,
		inRange(lo, hi), beyondHi(hi), ProbeStats{IndexReads: reads}), nil
}

// MultiSearch shares root-to-leaf descents across the sorted batch and
// reads each flagged data page once.
func (ix *bpIndex) MultiSearch(keys []uint64) (*Result, error) {
	groups, idxReads, err := ix.tree.MultiSearch(keys)
	if err != nil {
		return nil, err
	}
	return multiSearchGroups(ix.file, ix.fieldIdx, groups, ix.dedup,
		ProbeStats{IndexReads: idxReads})
}

func (ix *bpIndex) Stats() Stats {
	return Stats{
		Backend:   "bptree",
		Pages:     ix.tree.NumNodes(),
		SizeBytes: ix.tree.SizeBytes(),
		Height:    ix.tree.Height(),
		Entries:   ix.tree.NumEntries(),
	}
}

func (ix *bpIndex) Close() error { return nil }

func (ix *bpIndex) Insert(key uint64, ref Ref) error {
	if err := checkRef(ix.file, ref); err != nil {
		return err
	}
	return ix.tree.Insert(bptree.Entry{Key: key, Ref: ref})
}

func (ix *bpIndex) InternalPages() ([]PageID, error) { return ix.tree.InternalPages() }
