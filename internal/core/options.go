// Package core implements the BF-Tree, the paper's primary contribution:
// an approximate tree index whose internal nodes are classic B+-Tree
// nodes but whose leaves (BF-leaves) hold Bloom filters instead of
// <key, pointer> entries. Each BF-leaf covers a contiguous range of data
// pages and a contiguous key range, and stores — per data page, or per
// group of pages — a Bloom filter answering "might key k be on this
// page?". Probing trades a configurable false positive probability (and
// the unnecessary page reads it causes) for an index that is one to two
// orders of magnitude smaller than the corresponding B+-Tree.
//
// The package implements bulk loading (Section 4.2), probe Algorithm 1,
// insert Algorithm 3, leaf split Algorithm 2 (with the parallel probing
// optimization of Section 8), range scans with and without the boundary
// optimization of Section 7, false-positive drift under inserts and
// deletes (Equation 14), and counting-filter leaves as the deletable
// alternative Section 7 discusses.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"bftree/internal/bloom"
)

// Errors returned by the package.
var (
	ErrOptions  = errors.New("bftree: invalid options")
	ErrCorrupt  = errors.New("bftree: corrupt node")
	ErrKeyRange = errors.New("bftree: key outside leaf range")
	// ErrNotIndexed reports a counting-filter Delete whose key→page
	// association no covering leaf claims: nothing was removed and no
	// drift was recorded.
	ErrNotIndexed = errors.New("bftree: association not indexed")
)

// maxHashes is the largest hash count a BF-leaf header can store.
const maxHashes = 255

// FilterKind selects the Bloom filter variant used in BF-leaves.
type FilterKind byte

const (
	// StandardFilter is the plain Bloom filter of the paper's
	// experiments: smallest, insert-only.
	StandardFilter FilterKind = iota
	// CountingFilter uses 4-bit counters per position, supporting
	// deletes at 4x the space per position (Section 7's deletable
	// alternative).
	CountingFilter
)

// MaintenanceMode selects who performs structural maintenance — limbo
// reclamation of retired copy-on-write pages and fpp-drift-triggered
// compaction (see maintenance.go and DESIGN.md §4).
type MaintenanceMode byte

const (
	// MaintenanceManual (the default) keeps the pre-maintainer
	// behavior: structural writers reclaim limbo opportunistically
	// inline, and the caller may run Tree.Maintain (or start a
	// maintainer explicitly with Tree.StartMaintenance) on demand.
	MaintenanceManual MaintenanceMode = iota
	// MaintenanceAuto starts a background maintainer goroutine at
	// BulkLoad/Open. Foreground structural writers then only *request*
	// maintenance; the maintainer reclaims limbo epochs and compacts
	// the tree when the Equation 14 fpp estimate crosses the threshold.
	// The tree must be Closed to drain the maintainer.
	MaintenanceAuto
)

// MaintenancePolicy configures the self-maintaining mode: when retired
// copy-on-write pages are reclaimed and when accumulated insert/delete
// drift (Section 7, Equation 14) triggers a Rebuild-based compaction.
type MaintenancePolicy struct {
	// Mode selects manual (default) or auto maintenance.
	Mode MaintenanceMode
	// FPPThreshold is the effective false-positive probability
	// (Tree.EffectiveFPP, the Equation 14 estimate plus the Section 7
	// delete term) at which the maintainer compacts the index via
	// Rebuild. It must exceed the design FPP, or the compaction would
	// re-trigger immediately. 0 selects 4x the design FPP (kept below
	// 1); 1 disables drift compaction. With a live maintainer, a writer
	// that pushes the estimate a quarter of the headroom (threshold −
	// design FPP) past the threshold waits for the maintainer's next
	// pass.
	FPPThreshold float64
	// ReclaimInterval is the maintainer's periodic wakeup: the upper
	// bound on how long reclaimable limbo or unnoticed drift waits when
	// no probe-completion or structural-change signal arrives. 0
	// selects 5ms.
	ReclaimInterval time.Duration
	// IncrementalBatch, when positive, makes drift compaction
	// incremental: each maintenance pass rewrites only the
	// IncrementalBatch most-drifted leaves (tracked per leaf) under the
	// exclusive lock, releasing it between batches, instead of
	// rebuilding the whole tree in one stall. 0 keeps the legacy
	// whole-tree Rebuild. See DESIGN.md §4 and Tree.Maintain.
	IncrementalBatch int
}

// withDefaults fills zero values and validates against the design fpp.
func (p MaintenancePolicy) withDefaults(fpp float64) (MaintenancePolicy, error) {
	switch p.Mode {
	case MaintenanceManual, MaintenanceAuto:
	default:
		return p, fmt.Errorf("%w: unknown maintenance mode %d", ErrOptions, p.Mode)
	}
	if p.FPPThreshold == 0 {
		p.FPPThreshold = 4 * fpp
		if p.FPPThreshold >= 1 {
			// Keep the default strictly inside (fpp, 1) even for the
			// paper's loosest design points.
			p.FPPThreshold = (1 + fpp) / 2
		}
	} else if math.IsNaN(p.FPPThreshold) || p.FPPThreshold <= fpp || p.FPPThreshold > 1 {
		// A NaN fails every ordered comparison, so without the explicit
		// check it would slip through and silently disable compaction.
		return p, fmt.Errorf("%w: fpp threshold %g outside (design fpp %g, 1]",
			ErrOptions, p.FPPThreshold, fpp)
	}
	if p.ReclaimInterval == 0 {
		p.ReclaimInterval = 5 * time.Millisecond
	} else if p.ReclaimInterval < 0 {
		return p, fmt.Errorf("%w: reclaim interval %v", ErrOptions, p.ReclaimInterval)
	}
	if p.IncrementalBatch < 0 {
		return p, fmt.Errorf("%w: incremental batch %d", ErrOptions, p.IncrementalBatch)
	}
	// The persisted metadata stores the batch as a uint32; clamping here
	// keeps a marshal/reopen cycle faithful, and a batch this large is
	// indistinguishable from "the whole tree per pass" anyway. Via uint64
	// so the comparison and assignment compile on 32-bit ints, where the
	// branch is simply unreachable.
	if maxB := uint64(math.MaxUint32); uint64(p.IncrementalBatch) > maxB {
		p.IncrementalBatch = int(maxB)
	}
	return p, nil
}

// Options configure a BF-Tree build.
type Options struct {
	// FPP is the design false positive probability of each leaf Bloom
	// filter. The paper sweeps it from 0.2 to 1e-15.
	FPP float64
	// Granularity is the number of consecutive data pages covered by one
	// Bloom filter within a leaf. 1 (the default and the paper's best
	// configuration) directs probes to exactly the matching pages;
	// larger values trade probe precision for fewer, larger filters.
	Granularity int
	// Hashes is the number of hash functions per filter. 0 (the
	// default) selects the optimal count for each leaf's filter
	// geometry — Equation 1, which sizes the filters, assumes optimal
	// hashing, and the paper's measured false-read rates (Table 3) track
	// the design fpp closely, which fixed k cannot do across the sweep.
	// Set 3 to reproduce the paper's stated configuration exactly. The
	// BF-leaf header stores k in one byte, so at most maxHashes.
	Hashes int
	// Filter selects standard or counting leaf filters.
	Filter FilterKind
	// Maintenance configures the self-maintaining mode: background
	// limbo reclamation and drift-triggered compaction (DESIGN.md §4).
	// The zero value keeps the manual, inline-reclamation behavior.
	Maintenance MaintenancePolicy
}

// withDefaults fills zero values and validates.
func (o Options) withDefaults() (Options, error) {
	if math.IsNaN(o.FPP) || o.FPP <= 0 || o.FPP >= 1 {
		return o, fmt.Errorf("%w: fpp %g out of (0,1)", ErrOptions, o.FPP)
	}
	if o.Granularity == 0 {
		o.Granularity = 1
	}
	if o.Granularity < 0 {
		return o, fmt.Errorf("%w: granularity %d", ErrOptions, o.Granularity)
	}
	if o.Hashes < 0 || o.Hashes > maxHashes {
		return o, fmt.Errorf("%w: hashes %d out of [0,%d]", ErrOptions, o.Hashes, maxHashes)
	}
	if o.Filter != StandardFilter && o.Filter != CountingFilter {
		return o, fmt.Errorf("%w: unknown filter kind %d", ErrOptions, o.Filter)
	}
	m, err := o.Maintenance.withDefaults(o.FPP)
	if err != nil {
		return o, err
	}
	o.Maintenance = m
	return o, nil
}

// Geometry captures the derived leaf parameters for a page size and
// options: how many bits a leaf can spend on filters and how many
// distinct keys it can index at the design fpp (Equation 5 of the paper,
// adjusted for the leaf header).
type Geometry struct {
	PageSize     int
	FilterBits   uint64 // total filter bits available per leaf
	KeysPerLeaf  uint64 // distinct keys a leaf indexes at the design fpp
	MinBitsPerBF uint64 // lower bound enforced per sub-filter
}

// geometryFor computes the leaf geometry. Counting filters spend 4 bits
// per position, shrinking capacity by 4x.
func geometryFor(pageSize int, o Options) (Geometry, error) {
	avail := pageSize - leafHeaderSize
	if avail < 16 {
		return Geometry{}, fmt.Errorf("%w: page size %d too small for a BF-leaf", ErrOptions, pageSize)
	}
	bits := uint64(avail) * 8
	if o.Filter == CountingFilter {
		bits /= 4
	}
	keys := bloom.KeysForBits(bits, o.FPP)
	if keys == 0 {
		keys = 1
	}
	return Geometry{
		PageSize:     pageSize,
		FilterBits:   bits,
		KeysPerLeaf:  keys,
		MinBitsPerBF: 64,
	}, nil
}

// positionsFor divides the leaf's filter byte budget across s filters
// and returns the positions (bits for standard, counter slots for
// counting) each filter gets. Working in whole bytes per filter
// guarantees s filters always fit in the page.
func (g Geometry) positionsFor(s int, kind FilterKind) uint64 {
	bytesPer := (g.PageSize - leafHeaderSize) / s
	if bytesPer < 1 {
		bytesPer = 1
	}
	if kind == CountingFilter {
		return uint64(bytesPer) * 2
	}
	return uint64(bytesPer) * 8
}

// hashesFor resolves the hash-function count for a leaf with s filters:
// an explicit option wins; otherwise the optimal count for the design
// load (keysPerLeaf/s keys in posPerBF positions), capped to stay cheap
// to probe and to fit the leaf header byte.
func hashesFor(opt int, posPerBF uint64, keysPerLeaf uint64, s int) int {
	if opt > 0 {
		return opt
	}
	design := keysPerLeaf / uint64(s)
	if design < 1 {
		design = 1
	}
	k := bloom.OptimalHashes(posPerBF, design)
	if k > 30 {
		k = 30
	}
	return k
}
