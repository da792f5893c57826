package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Index metadata layout (little-endian):
//
//	bytes 0-3   magic "BFT1"
//	bytes 4-11  fpp (float64 bits)
//	bytes 12-15 granularity (uint32)
//	bytes 16-19 hashes (uint32)
//	byte  20    filter kind
//	byte  21    parallel probe flag
//	bytes 22-29 root pid
//	bytes 30-37 first leaf pid
//	bytes 38-41 height (uint32)
//	bytes 42-49 leaves
//	bytes 50-57 nodes
//	bytes 58-65 keys
//	bytes 66-73 inserts
//	bytes 74-81 deletes
//	bytes 82-85 field index (uint32)
//	byte  86    maintenance mode
//	bytes 87-94 fpp compaction threshold (float64 bits)
//	bytes 95-102 reclaim interval (int64 nanoseconds)
//	bytes 103-106 limbo high water (uint32)
//	bytes 107-110 incremental compaction batch (uint32, 0 = full rebuild)
//
// Open accepts exactly this length; any other is corruption.
const metaSize = 111

var metaMagic = [4]byte{'B', 'F', 'T', '1'}

// MarshalMeta serializes the tree's metadata — everything needed to
// reopen the index over its store and data file without rebuilding. The
// paper stresses that the small index enables fast rebuilds; persistence
// makes reopening free.
func (t *Tree) MarshalMeta() []byte {
	m := t.loadMeta()
	buf := make([]byte, metaSize)
	copy(buf[0:4], metaMagic[:])
	binary.LittleEndian.PutUint64(buf[4:12], math.Float64bits(t.opts.FPP))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(t.opts.Granularity))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(t.opts.Hashes))
	buf[20] = byte(t.opts.Filter)
	if t.opts.ParallelProbe {
		buf[21] = 1
	}
	binary.LittleEndian.PutUint64(buf[22:30], uint64(m.root))
	binary.LittleEndian.PutUint64(buf[30:38], uint64(m.firstLeaf))
	binary.LittleEndian.PutUint32(buf[38:42], uint32(m.height))
	binary.LittleEndian.PutUint64(buf[42:50], m.numLeaves)
	binary.LittleEndian.PutUint64(buf[50:58], m.numNodes)
	binary.LittleEndian.PutUint64(buf[58:66], m.numKeys)
	binary.LittleEndian.PutUint64(buf[66:74], m.inserts)
	binary.LittleEndian.PutUint64(buf[74:82], m.deletes)
	binary.LittleEndian.PutUint32(buf[82:86], uint32(t.fieldIdx))
	mp := t.opts.Maintenance
	buf[86] = byte(mp.Mode)
	binary.LittleEndian.PutUint64(buf[87:95], math.Float64bits(mp.FPPThreshold))
	binary.LittleEndian.PutUint64(buf[95:103], uint64(mp.ReclaimInterval.Nanoseconds()))
	binary.LittleEndian.PutUint32(buf[103:107], uint32(mp.LimboHighWater))
	binary.LittleEndian.PutUint32(buf[107:111], uint32(mp.IncrementalBatch))
	return buf
}

// Open reopens a tree from metadata produced by MarshalMeta. The store
// must hold the index pages the metadata references, and file must be
// the indexed relation.
func Open(store *pagestore.Store, file *heapfile.File, meta []byte) (*Tree, error) {
	return open(store, file, meta, nil)
}

// open is Open with the tree's partition attached before any maintainer
// goroutine starts — a maintainer racing ahead of the partition could
// compact a shard into a whole-file index.
func open(store *pagestore.Store, file *heapfile.File, meta []byte, part *Partition) (*Tree, error) {
	if len(meta) != metaSize {
		return nil, fmt.Errorf("%w: metadata is %d bytes, want %d", ErrCorrupt, len(meta), metaSize)
	}
	if [4]byte(meta[0:4]) != metaMagic {
		return nil, fmt.Errorf("%w: bad metadata magic", ErrCorrupt)
	}
	// Clamp the uint32 counts to the platform int so a blob written on
	// a 64-bit host reopens on 32-bit instead of going negative and
	// failing validation.
	hw := min(uint64(binary.LittleEndian.Uint32(meta[103:107])), math.MaxInt)
	ib := min(uint64(binary.LittleEndian.Uint32(meta[107:111])), math.MaxInt)
	opts := Options{
		FPP:           math.Float64frombits(binary.LittleEndian.Uint64(meta[4:12])),
		Granularity:   int(binary.LittleEndian.Uint32(meta[12:16])),
		Hashes:        int(binary.LittleEndian.Uint32(meta[16:20])),
		Filter:        FilterKind(meta[20]),
		ParallelProbe: meta[21] == 1,
		Maintenance: MaintenancePolicy{
			Mode:             MaintenanceMode(meta[86]),
			FPPThreshold:     math.Float64frombits(binary.LittleEndian.Uint64(meta[87:95])),
			ReclaimInterval:  time.Duration(binary.LittleEndian.Uint64(meta[95:103])),
			LimboHighWater:   int(hw),
			IncrementalBatch: int(ib),
		},
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	geo, err := geometryFor(store.PageSize(), o)
	if err != nil {
		return nil, err
	}
	fieldIdx := int(binary.LittleEndian.Uint32(meta[82:86]))
	if fieldIdx < 0 || fieldIdx >= len(file.Schema().Fields) {
		return nil, fmt.Errorf("%w: field index %d out of schema", ErrCorrupt, fieldIdx)
	}
	t := &Tree{
		store:    store,
		file:     file,
		fieldIdx: fieldIdx,
		opts:     o,
		geo:      geo,
		part:     part,
	}
	m := &treeMeta{
		root:      device.PageID(binary.LittleEndian.Uint64(meta[22:30])),
		firstLeaf: device.PageID(binary.LittleEndian.Uint64(meta[30:38])),
		height:    int(binary.LittleEndian.Uint32(meta[38:42])),
		numLeaves: binary.LittleEndian.Uint64(meta[42:50]),
		numNodes:  binary.LittleEndian.Uint64(meta[50:58]),
		numKeys:   binary.LittleEndian.Uint64(meta[58:66]),
		inserts:   binary.LittleEndian.Uint64(meta[66:74]),
		deletes:   binary.LittleEndian.Uint64(meta[74:82]),
	}
	t.meta.Store(m)
	// Sanity-probe the root so corrupt metadata fails fast: a root the
	// store cannot read is a dangling pointer in the blob.
	buf, err := store.ReadPage(m.root)
	if err != nil {
		return nil, fmt.Errorf("%w: open: root page %d: %w", ErrCorrupt, m.root, err)
	}
	if _, err := nodeKind(buf); err != nil {
		return nil, fmt.Errorf("bftree: open: root page: %w", err)
	}
	if t.opts.Maintenance.Mode == MaintenanceAuto {
		t.StartMaintenance()
	}
	return t, nil
}

// Rebuild re-bulk-loads the index from its data file with the same
// options, discarding accumulated fpp drift from inserts and deletes.
// "The smaller size enables fast rebuilds if needed" (Section 1.4): a
// BF-Tree rebuild is one sequential pass over the data and one over the
// new leaves. The fresh tree is published as one atomic snapshot, so
// probes running concurrently see either the drifted or the rebuilt
// index; every page of the old tree is retired and returns to the
// store's free list once the epoch grace period passes.
func (t *Tree) Rebuild() error {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	if err := t.rebuildLocked(); err != nil {
		return err
	}
	t.maintRequest()
	return nil
}

// rebuildLocked is Rebuild's body; callers hold the exclusive writeMu.
// It retires the whole old tree but performs no reclamation — that is
// the maintenance layer's job (the background maintainer under auto
// mode, the inline maintRequest fallback under manual).
//
// The replacement comes from bulkLoadTree, not BulkLoad: the fresh Tree
// shell is discarded after its published meta is adopted, so it must
// not own a maintainer goroutine. The new snapshot carries zero
// insert/delete drift — BulkLoad counts only build-time keys — which is
// what lets the drift-triggered compaction terminate instead of
// re-triggering itself (asserted by TestRebuildClearsDrift).
func (t *Tree) rebuildLocked() error {
	old := t.loadMeta()
	// Collect the old tree's pages (writer-side walk) before the new
	// snapshot replaces it.
	retired, err := t.internalPagesOf(old)
	if err != nil {
		return err
	}
	pid := old.firstLeaf
	for pid != device.InvalidPage {
		retired = append(retired, pid)
		var stats ProbeStats
		leaf, err := t.readLeaf(pid, &stats)
		if err != nil {
			return err
		}
		pid = leaf.next
	}
	fresh, err := bulkLoadTree(t.store, t.file, t.fieldIdx, t.opts, t.part)
	if err != nil {
		return err
	}
	t.meta.Store(fresh.loadMeta())
	t.retire(retired...)
	return nil
}
