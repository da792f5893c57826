package index

import "bftree/internal/core"

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
			return &bfIndex{tree: tr}, nil
		},
		Open: func(store *Store, file *File, meta []byte) (Index, error) {
			tr, err := core.Open(store, file, meta)
			if err != nil {
				return nil, err
			}
			return &bfIndex{tree: tr}, nil
		},
	})
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
func (ix *bfIndex) Insert(key uint64, ref Ref) error {
	if err := checkRef(ix.tree.File(), ref); err != nil {
		return err
	}
	return keyOrder(ix.tree.Insert(key, ref.Page))
}

// Delete removes a key→page association (physically for counting
// filters; as tracked fpp drift for standard ones).
func (ix *bfIndex) Delete(key uint64, ref Ref) error {
	if err := checkRef(ix.tree.File(), ref); err != nil {
		return err
	}
	return keyOrder(ix.tree.Delete(key, ref.Page))
}

func (ix *bfIndex) MarshalMeta() []byte { return ix.tree.MarshalMeta() }

func (ix *bfIndex) Maintain() error { return ix.tree.Maintain() }
func (ix *bfIndex) MaintenanceStats() MaintenanceStats {
	return ix.tree.MaintenanceStats()
}

func (ix *bfIndex) InternalPages() ([]PageID, error) { return ix.tree.InternalPages() }
