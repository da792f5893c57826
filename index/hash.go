package index

import (
	"bftree/internal/bptree"
	"bftree/internal/hashindex"
	"bftree/internal/heapfile"
)

func init() {
	Register(Backend{
		Name:           "hash",
		MemoryResident: true,
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			// The paper's hash competitor is memory-resident with one
			// entry per tuple regardless of attribute cardinality; the
			// store and DedupKeys are intentionally unused.
			entries, err := bptree.PKEntries(file, fieldIdx)
			if err != nil {
				return nil, err
			}
			return &hashIndex{idx: hashindex.Build(entries), file: file, fieldIdx: fieldIdx}, nil
		},
	})
}

// hashIndex adapts the in-memory hash baseline: constant-time bucket
// probes cost no index I/O; only the data-page fetches for matching
// tuples reach a device. Beyond Index it implements Deleter.
type hashIndex struct {
	idx      *hashindex.Index
	file     *heapfile.File
	fieldIdx int
}

func (ix *hashIndex) Search(key uint64) (*Result, error)      { return ix.search(key, false) }
func (ix *hashIndex) SearchFirst(key uint64) (*Result, error) { return ix.search(key, true) }

func (ix *hashIndex) search(key uint64, firstOnly bool) (*Result, error) {
	res := &Result{}
	refs := ix.idx.Search(key)
	if len(refs) == 0 {
		return res, nil
	}
	if err := fetchPointRefs(ix.file, ix.fieldIdx, key, refs, firstOnly, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RangeScan answers through the bucket walk of hashindex.SearchRange —
// a capability the paper's hash competitor lacks; see its doc comment
// for the cost model.
func (ix *hashIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams the bucket-walk answer: the reference list is built up
// front (a memory operation costing no index I/O), then data pages are
// read only as the consumer pulls.
func (ix *hashIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	refs := ix.idx.SearchRange(lo, hi)
	return newRefIter(newFetcher(ix.file, ix.fieldIdx), &sliceRefs{refs: refs}, inRange(lo, hi)), nil
}

// MultiSearch groups the batch by bucket: keys are sorted and deduped,
// each bucket probed once (no index I/O to share), and each referenced
// data page read once for the whole batch.
func (ix *hashIndex) MultiSearch(keys []uint64) (*Result, error) {
	groups := ix.idx.MultiSearch(keys)
	return multiSearchGroups(ix.file, ix.fieldIdx, groups, false, ProbeStats{})
}

func (ix *hashIndex) Stats() Stats {
	return Stats{
		Backend:   "hash",
		SizeBytes: ix.idx.SizeBytes(),
		Height:    1,
		Entries:   ix.idx.NumEntries(),
		Keys:      uint64(ix.idx.NumKeys()),
	}
}

func (ix *hashIndex) Close() error { return nil }

func (ix *hashIndex) Insert(key uint64, ref Ref) error {
	ix.idx.Insert(key, ref)
	return nil
}

// Delete removes one key→tuple mapping; deleting an absent mapping is a
// tolerable no-op, matching the hash map semantics.
func (ix *hashIndex) Delete(key uint64, ref Ref) error {
	ix.idx.Delete(key, ref)
	return nil
}
