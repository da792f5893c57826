package index

import (
	"sort"

	"bftree/internal/core"
)

// defaultBFTreeFPP is the design false positive probability the BF-Tree
// backend uses when Options.BFTree leaves it zero — the 1e-3 point the
// quickstart and TPCH experiments run at.
const defaultBFTreeFPP = 1e-3

func init() {
	Register(Backend{
		Name:              "bftree",
		Approximate:       true,
		ConcurrentWriters: true,
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			o := opts.BFTree
			if o.FPP == 0 {
				o.FPP = defaultBFTreeFPP
			}
			tr, err := core.BulkLoad(store, file, fieldIdx, o)
			if err != nil {
				return nil, err
			}
			return newBFIndex(tr, opts), nil
		},
		Open: func(store *Store, file *File, meta []byte) (Index, error) {
			tr, err := core.Open(store, file, meta)
			if err != nil {
				return nil, err
			}
			return newBFIndex(tr, Options{}), nil
		},
	})
}

func newBFIndex(tr *core.Tree, opts Options) Index {
	if opts.BufferedInserts > 0 {
		return &bufferedBFIndex{
			tree: tr,
			buf:  tr.NewBufferedInserter(opts.BufferedInserts),
		}
	}
	return &bfIndex{tree: tr}
}

// bfIndex adapts core.Tree — the BF-Tree already speaks the Result
// shape, so every method is a delegation; the core scan cursor
// satisfies Iterator directly. Beyond Index it implements Deleter,
// Persister, Maintainer and Warmable.
type bfIndex struct {
	tree *core.Tree
}

func (ix *bfIndex) Search(key uint64) (*Result, error)      { return ix.tree.Search(key) }
func (ix *bfIndex) SearchFirst(key uint64) (*Result, error) { return ix.tree.SearchFirst(key) }
func (ix *bfIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams the leaf-chain walk under the tree's epoch scheme: the
// cursor holds a reader registration until closed or drained, so pages
// it may traverse stay out of limbo reclamation (DESIGN.md §6). The
// cursor runs with the Section 7 boundary optimization: leaves only
// partially covered by [lo, hi] probe their Bloom filters and read just
// the flagged pages, instead of their whole page span.
func (ix *bfIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	return ix.tree.ScanOptimized(lo, hi)
}

// MultiSearch shares descents, filter probes and page reads across the
// batch via the core tree's batched probe.
func (ix *bfIndex) MultiSearch(keys []uint64) (*Result, error) {
	return ix.tree.MultiSearch(keys)
}

func (ix *bfIndex) Close() error { return ix.tree.Close() }

func (ix *bfIndex) Stats() Stats {
	return Stats{
		Backend:      "bftree",
		Pages:        ix.tree.NumNodes(),
		SizeBytes:    ix.tree.SizeBytes(),
		Height:       ix.tree.Height(),
		Entries:      ix.tree.NumKeys(),
		Keys:         ix.tree.NumKeys(),
		EffectiveFPP: ix.tree.EffectiveFPP(),
	}
}

// Insert adds a key→page association; the BF-Tree indexes pages, not
// slots, so the reference's slot is ignored.
func (ix *bfIndex) Insert(key uint64, ref Ref) error { return ix.tree.Insert(key, ref.Page) }

// Delete removes a key→page association (physically for counting
// filters; as tracked fpp drift for standard ones).
func (ix *bfIndex) Delete(key uint64, ref Ref) error { return ix.tree.Delete(key, ref.Page) }

func (ix *bfIndex) MarshalMeta() []byte { return ix.tree.MarshalMeta() }

func (ix *bfIndex) Maintain() error { return ix.tree.Maintain() }
func (ix *bfIndex) MaintenanceStats() MaintenanceStats {
	return ix.tree.MaintenanceStats()
}

func (ix *bfIndex) InternalPages() ([]PageID, error) { return ix.tree.InternalPages() }

// bufferedBFIndex is the update-intensive mode of Section 4.2 behind
// the same interface: Insert batches in memory, Flush applies the batch
// leaf-by-leaf, and point probes merge buffered entries with the tree's
// answer. Range scans see only flushed state — call Flush first when
// scanning must observe buffered inserts. Deliberately NOT a composed
// bfIndex: each capability must account for the buffer, so Delete
// flushes before touching the tree, and Persister is withheld — a
// marshal could otherwise silently drop buffered inserts (Flush, then
// rebuild the index unbuffered, to persist).
type bufferedBFIndex struct {
	tree *core.Tree
	buf  *core.BufferedInserter
}

func (ix *bufferedBFIndex) Search(key uint64) (*Result, error) { return ix.buf.Search(key) }

func (ix *bufferedBFIndex) SearchFirst(key uint64) (*Result, error) {
	res, err := ix.buf.Search(key)
	if err != nil {
		return nil, err
	}
	if len(res.Tuples) > 1 {
		res.Tuples = res.Tuples[:1]
	}
	return res, nil
}

func (ix *bufferedBFIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams flushed state only, like RangeScan — call Flush first
// when the scan must observe buffered inserts. Boundary-optimized, like
// the unbuffered backend's Scan.
func (ix *bufferedBFIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	return ix.tree.ScanOptimized(lo, hi)
}

// MultiSearch answers the batch through per-key buffered searches:
// every answer merges buffered entries with the tree's, matching
// Search, so the buffer forecloses cross-key page sharing (keys are
// still sorted and deduped). Flush first to regain the shared path.
func (ix *bufferedBFIndex) MultiSearch(keys []uint64) (*Result, error) {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res := &Result{}
	var prev uint64
	for i, k := range sorted {
		if i > 0 && k == prev {
			continue
		}
		prev = k
		r, err := ix.buf.Search(k)
		if err != nil {
			return nil, err
		}
		res.Tuples = append(res.Tuples, r.Tuples...)
		addStats(&res.Stats, r.Stats)
	}
	return res, nil
}

func (ix *bufferedBFIndex) Stats() Stats { return (&bfIndex{tree: ix.tree}).Stats() }

func (ix *bufferedBFIndex) Close() error { return ix.tree.Close() }

func (ix *bufferedBFIndex) Insert(key uint64, ref Ref) error { return ix.buf.Insert(key, ref.Page) }

// Delete applies the pending buffer first so a just-buffered
// association can be deleted like any other.
func (ix *bufferedBFIndex) Delete(key uint64, ref Ref) error {
	if err := ix.buf.Flush(); err != nil {
		return err
	}
	return ix.tree.Delete(key, ref.Page)
}

func (ix *bufferedBFIndex) Flush() error { return ix.buf.Flush() }

func (ix *bufferedBFIndex) Maintain() error { return ix.tree.Maintain() }
func (ix *bufferedBFIndex) MaintenanceStats() MaintenanceStats {
	return ix.tree.MaintenanceStats()
}

func (ix *bufferedBFIndex) InternalPages() ([]PageID, error) { return ix.tree.InternalPages() }
