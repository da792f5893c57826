package index

import (
	"bftree/internal/forest"
)

func init() {
	Register(Backend{
		Name:              "bfforest",
		Approximate:       true,
		ConcurrentWriters: true,
		BulkLoad: func(store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
			o := opts.BFTree
			if o.FPP == 0 {
				o.FPP = defaultBFTreeFPP
			}
			// The registry's one Maintenance policy configures every
			// shard: the forest splits IncrementalBatch across shards
			// so the per-pass compaction budget is forest-wide.
			f, err := forest.New(store, file, fieldIdx, forest.Options{
				Shards: opts.ForestShards,
				Tree:   o,
			})
			if err != nil {
				return nil, err
			}
			return &forestIndex{f: f, file: file}, nil
		},
		Open: func(store *Store, file *File, meta []byte) (Index, error) {
			f, err := forest.Open(store, file, meta)
			if err != nil {
				return nil, err
			}
			return &forestIndex{f: f, file: file}, nil
		},
	})
}

// forestIndex adapts forest.Forest — a sharded set of BF-Trees behind
// the one-tree API (DESIGN.md §7). The forest already speaks the Result
// and cursor shapes, so every method delegates; beyond Index it
// implements Deleter, Persister, Maintainer and Warmable.
// Structural writers on distinct shards never contend, which is the
// backend's whole reason to exist.
type forestIndex struct {
	f    *forest.Forest
	file *File
}

func (ix *forestIndex) Search(key uint64) (*Result, error)      { return ix.f.Search(key) }
func (ix *forestIndex) SearchFirst(key uint64) (*Result, error) { return ix.f.SearchFirst(key) }

func (ix *forestIndex) RangeScan(lo, hi uint64) (*Result, error) {
	return scanRange(ix, lo, hi)
}

// Scan streams shard after shard in key order, chaining shard cursors
// lazily (LIMIT-k never opens shards past its k-th tuple); within a
// shard the order is its BF-tree's, which is not key order. Each shard
// cursor holds its own epoch registration.
func (ix *forestIndex) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, ErrInvalidRange
	}
	it, err := ix.f.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	return it, nil
}

// MultiSearch fans the batch out by partition and runs the per-shard
// batches concurrently, each sharing descents within its shard.
func (ix *forestIndex) MultiSearch(keys []uint64) (*Result, error) {
	return ix.f.MultiSearch(keys)
}

func (ix *forestIndex) Close() error { return ix.f.Close() }

func (ix *forestIndex) Stats() Stats {
	return Stats{
		Backend:      "bfforest",
		Pages:        ix.f.NumNodes(),
		SizeBytes:    ix.f.SizeBytes(),
		Height:       ix.f.Height(),
		Entries:      ix.f.NumKeys(),
		Keys:         ix.f.NumKeys(),
		EffectiveFPP: ix.f.EffectiveFPP(),
	}
}

// Insert adds a key→page association to the key's owner shard.
func (ix *forestIndex) Insert(key uint64, ref Ref) error {
	if err := checkRef(ix.file, ref); err != nil {
		return err
	}
	return keyOrder(ix.f.Insert(key, ref.Page))
}

// Delete removes a key→page association from the key's owner shard.
func (ix *forestIndex) Delete(key uint64, ref Ref) error {
	if err := checkRef(ix.file, ref); err != nil {
		return err
	}
	return keyOrder(ix.f.Delete(key, ref.Page))
}

func (ix *forestIndex) MarshalMeta() []byte { return ix.f.MarshalMeta() }

// Maintain runs one pass on every shard; MaintenanceStats sums the
// shard maintainers' accounting (Running reports any live maintainer).
func (ix *forestIndex) Maintain() error { return ix.f.Maintain() }
func (ix *forestIndex) MaintenanceStats() MaintenanceStats {
	return ix.f.MaintenanceStats()
}

func (ix *forestIndex) InternalPages() ([]PageID, error) { return ix.f.InternalPages() }
