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
			return &bpIndex{treeIndex[*bptree.Cursor, *bptree.Tree]{tr, file, fieldIdx, opts.DedupKeys}}, nil
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

// bpIndex adapts the B+-Tree baseline to the shared tree query path
// (treeIndex). The MultiSearch descent shares root-to-leaf paths across
// a sorted batch; Scan streams the leaf-sibling walk. It implements
// Warmable beyond Index.
type bpIndex struct {
	treeIndex[*bptree.Cursor, *bptree.Tree]
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

func (ix *bpIndex) Insert(key uint64, ref Ref) error {
	if err := checkRef(ix.file, ref); err != nil {
		return err
	}
	return ix.tree.Insert(bptree.Entry{Key: key, Ref: ref})
}

func (ix *bpIndex) InternalPages() ([]PageID, error) { return ix.tree.InternalPages() }
