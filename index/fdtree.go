package index

import (
	"bftree/internal/fdtree"
)

func init() {
	Register(Backend{
		Name: "fdtree",
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			entries, err := layoutEntries(file, fieldIdx, opts.DedupKeys)
			if err != nil {
				return nil, err
			}
			tr, err := fdtree.BulkLoad(store, entries, fdtree.Options{})
			if err != nil {
				return nil, err
			}
			return &fdIndex{treeIndex[*fdtree.Cursor, *fdtree.Tree]{tr, file, fieldIdx, opts.DedupKeys}, store}, nil
		},
	})
}

// fdIndex adapts the FD-Tree comparator to the shared tree query path
// (treeIndex): the fractional-cascade search reads one run page per
// on-device level, and Scan streams the k-way merge over the head tree
// and per-level run cursors. Beyond Index it implements Flusher (the
// memory-resident head tree).
type fdIndex struct {
	treeIndex[*fdtree.Cursor, *fdtree.Tree]
	store *Store
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

func (ix *fdIndex) Insert(key uint64, ref Ref) error {
	if err := checkRef(ix.file, ref); err != nil {
		return err
	}
	return ix.tree.Insert(key, ref)
}

// Flush forces the memory-resident head tree's records onto the device
// through the merge cascade.
func (ix *fdIndex) Flush() error { return ix.tree.FlushHead() }
