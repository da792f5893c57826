package core

import (
	"fmt"

	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Partition restricts a tree to one shard of the indexed relation: the
// tree indexes only the keys the partition accepts, while reading the
// same shared heap file as every sibling shard. Partitioning is by KEY,
// not by page — a duplicate run straddling a page cut belongs wholly to
// the shard that owns its key, so two shards may both cover the
// straddling page without ever double-claiming an association (the
// cross-shard exactly-once rule of the forest layer).
//
// A partition accepts the keys in [KeyLo, KeyHi], which is how the
// forest keeps shards ordered and range scans mergeable by
// concatenation.
//
// The partition is part of the tree's identity: it survives Rebuild
// (drift compaction re-applies the same filter, so a shard never
// swallows the whole file) and is carried by the owning composite
// across MarshalMeta/OpenPartition.
type Partition struct {
	// KeyLo, KeyHi are the inclusive accepted key bounds.
	KeyLo, KeyHi uint64
}

// validate rejects malformed partitions before they reach a build.
func (p *Partition) validate() error {
	if p == nil {
		return nil
	}
	if p.KeyLo > p.KeyHi {
		return fmt.Errorf("%w: partition key range [%d,%d] inverted", ErrOptions, p.KeyLo, p.KeyHi)
	}
	return nil
}

// keys selects the keys in [lo, hi] that the partition owns. A nil
// partition owns everything (the single-tree case).
func (p *Partition) keys(lo, hi uint64) heapfile.Keys {
	if p != nil {
		lo, hi = max(lo, p.KeyLo), min(hi, p.KeyHi)
	}
	return heapfile.Keys{Lo: lo, Hi: hi}
}

// BulkLoadPartition is BulkLoad restricted to one partition of the
// relation: only accepted keys are indexed, and only the pages holding
// them enter the shard's leaf spans. An empty partition (no accepted
// keys anywhere) builds a valid one-leaf tree that answers every probe
// empty — a forest shard must exist even when the key distribution
// leaves it nothing, and it must accept appends later.
//
// Like BulkLoad, the returned tree owns a background maintainer under
// Options.Maintenance.Mode == MaintenanceAuto; call Close to drain it.
func BulkLoadPartition(idxStore *pagestore.Store, file *heapfile.File, fieldIdx int, opts Options, part *Partition) (*Tree, error) {
	if err := part.validate(); err != nil {
		return nil, err
	}
	t, err := bulkLoadTree(idxStore, file, fieldIdx, opts, part)
	if err != nil {
		return nil, err
	}
	if t.opts.Maintenance.Mode == MaintenanceAuto {
		t.StartMaintenance()
	}
	return t, nil
}

// OpenPartition reopens a partitioned tree from a MarshalMeta blob. The
// metadata layout is identical to an unpartitioned tree's — the
// partition itself is owned and persisted by the composite (the forest
// layer), which hands it back here so Rebuild keeps filtering.
func OpenPartition(store *pagestore.Store, file *heapfile.File, meta []byte, part *Partition) (*Tree, error) {
	if err := part.validate(); err != nil {
		return nil, err
	}
	return open(store, file, meta, part)
}
