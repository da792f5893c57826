// Package index defines the unified index contract of the repo: one
// capability-aware interface over every point-lookup structure the
// paper compares — the BF-Tree itself, the B+-Tree and hash baselines,
// and the FD-Tree comparator — plus a name-keyed backend registry.
//
// The paper's headline result is a comparison (a BF-Tree probes within
// ~2x of a B+-Tree and hash index at one to two orders of magnitude
// less space); this package is that comparison as an API. Every backend
// answers the same probes with the same Result shape — matching tuples
// plus cost accounting — so the bench harness measures all of them
// through one generic path, and a serving layer can mount any of them
// (or several at once) behind the same handler.
//
//	ix, _ := index.New("bptree", idxStore, file, 0, index.Options{})
//	res, _ := ix.Search(key)          // same call, any backend
//	if del, ok := ix.(index.Deleter); ok { ... }  // capability discovery
//
// The mandatory interface covers what every backend answers: point,
// range and batched lookups, streaming scans, inserts, stats, close.
// Deletes, flushing, persistence, maintenance and cache warming vary
// by backend; each is an optional capability interface discovered by
// type assertion, and the per-backend matrix lives in DESIGN.md §5.
package index

import (
	"errors"

	"bftree/internal/bptree"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Re-exported types shared with the bftree root package. Result is the
// outcome of any probe: matching tuples plus the probe's cost
// accounting (ProbeStats). Every backend answers with read-only views
// of the data pages' shared images (see Result in internal/core): a
// view stays valid for as long as the caller holds it, a caller that
// wants to change a tuple copies it first, and a retained view keeps
// its page image (4 KiB at the default page size) alive. Ref identifies
// one tuple by data page and slot — the entry payload of the exact
// backends; the BF-Tree keys associations by page only and ignores the
// slot.
type (
	Result     = core.Result
	ProbeStats = core.ProbeStats
	Ref        = bptree.TupleRef
	PageID     = device.PageID
	Store      = pagestore.Store
	File       = heapfile.File

	// MaintenanceStats is the snapshot returned by the Maintainer
	// capability (the bftree and bfforest backends implement it).
	MaintenanceStats = core.MaintenanceStats
)

// ErrUnknownField is re-exported from the schema layer so callers of
// the field-name factories can match it without importing bftree.
var ErrUnknownField = heapfile.ErrUnknownField

// ErrUnknownBackend reports a name no Backend was registered under.
var ErrUnknownBackend = errors.New("index: unknown backend")

// ErrUnsupported reports an operation the backend does not provide
// (for example Open on a backend that does not persist).
var ErrUnsupported = errors.New("index: unsupported operation")

// Index is the common contract every registered backend satisfies.
// Results are identical across backends for the same relation — the
// BF-Tree's approximation costs false-positive *page reads*, visible in
// Result.Stats, never wrong tuples. Implementations are safe for
// concurrent probes when their underlying structure is (the BF-Tree
// backend is; the baselines are read-safe after build as long as no
// writer runs).
//
// All five built-in backends stream scans, batch probes and accept
// inserts, so Scanner, MultiSearcher and Inserter are part of the
// contract. Anything beyond it is an optional capability discovered by
// type assertion —
//
//	if d, ok := ix.(index.Deleter); ok { err = d.Delete(key, ref) }
//
// Which backend has which lives in DESIGN.md §5. Where a caller cannot
// assert — Open on a backend that does not persist, a capability route
// of the HTTP server — the missing capability surfaces as
// ErrUnsupported.
type Index interface {
	// Search returns every tuple whose indexed field equals key.
	Search(key uint64) (*Result, error)
	// SearchFirst is the primary-key variant: the probe stops as soon
	// as a match is found. Exact backends return the first matching
	// tuple; the BF-Tree returns the first matching page's tuples (the
	// paper's early-exit unit is the page read).
	SearchFirst(key uint64) (*Result, error)
	// RangeScan returns every tuple whose indexed field lies in
	// [lo, hi], each exactly once, in the backend's scan order (see
	// Iterator).
	RangeScan(lo, hi uint64) (*Result, error)
	// Stats reports the index's size and shape.
	Stats() Stats
	// Close releases background resources (the BF-Tree's maintainer);
	// a no-op for passive backends.
	Close() error

	Scanner
	MultiSearcher
	Inserter
}

// Stats is the size-and-shape snapshot behind the paper's capacity
// comparisons (Tables 2 and 4): footprint, height, and entry counts,
// plus the flags the bench layer keys generic behavior on.
type Stats struct {
	// Backend is the registered name that built this index.
	Backend string
	// Pages is the on-device index footprint in pages (0 for
	// memory-resident backends); SizeBytes is the footprint in bytes
	// (resident size for memory-resident backends).
	Pages     uint64
	SizeBytes uint64
	// Height counts index levels probed on a point lookup's way to the
	// data: B+-Tree/BF-Tree levels, FD-Tree on-device runs (+1 for the
	// head), 1 for hash.
	Height int
	// Entries is the number of indexed associations; Keys the distinct
	// key count where the backend tracks it (0 otherwise).
	Entries uint64
	Keys    uint64
	// EffectiveFPP is the current false positive probability of an
	// approximate backend (drift included); 0 for exact backends.
	EffectiveFPP float64
}

// Inserter accepts post-build inserts: key maps to the tuple at ref.
type Inserter interface {
	Insert(key uint64, ref Ref) error
}

// Deleter is implemented by backends that can remove an association.
type Deleter interface {
	Delete(key uint64, ref Ref) error
}

// Flusher is implemented by backends that buffer writes in memory and
// can force them to the device (the FD-Tree's head tree).
type Flusher interface {
	Flush() error
}

// Persister is implemented by backends whose index survives its
// process: MarshalMeta returns the blob that, together with the same
// store and file, reopens the index through the registry's Open.
type Persister interface {
	MarshalMeta() []byte
}

// Maintainer is implemented by backends with structural upkeep —
// reclamation and drift-triggered compaction (DESIGN.md §4).
type Maintainer interface {
	Maintain() error
	MaintenanceStats() MaintenanceStats
}

// Warmable is implemented by backends whose internal (non-leaf) pages
// can be pre-loaded into a buffer cache, the warm-cache setup of the
// paper's Figures 7, 10 and 12b.
type Warmable interface {
	InternalPages() ([]PageID, error)
}
