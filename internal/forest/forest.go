// Package forest shards one logical BF-Tree index into N core.Tree
// partitions over a shared heap file, multiplying structural write
// throughput: each shard owns its own writer lock, leaf latches, epoch
// reclamation and background maintainer, so a split or compaction
// stalls one shard instead of the whole index (DESIGN.md §7).
//
// Partitioning is by key range: the (ordered) relation is cut at page
// boundaries so shards stay ordered and cross-shard scans merge by
// concatenation. Every association of a key lives in exactly one shard,
// which is what makes forest Search/Scan/MultiSearch exactly-once
// without cross-shard deduplication.
package forest

import (
	"errors"
	"fmt"
	"sync"

	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// DefaultShards is the shard count a zero Options selects.
const DefaultShards = 4

// Options configures a forest build.
type Options struct {
	// Shards is the partition count; 0 selects DefaultShards. The
	// effective count may come out lower for a relation too small to
	// yield that many distinct cut keys.
	Shards int
	// Tree carries the BF-Tree build options every shard shares. Its
	// Maintenance is the forest-level policy: each shard runs
	// ShardPolicy(Tree.Maintenance, shards), so IncrementalBatch is the
	// forest-wide per-pass budget, split evenly across shards (ceiling,
	// at least 1 per shard), and adding shards does not multiply the
	// number of leaves compacted per pass.
	Tree core.Options
}

// ShardPolicy derives one shard's maintenance policy from a
// forest-level policy over shards partitions: every knob is shared
// verbatim except IncrementalBatch, which is the forest-wide per-pass
// compaction budget split evenly (ceiling division, minimum 1 so a
// positive budget stays incremental on every shard).
func ShardPolicy(p core.MaintenancePolicy, shards int) core.MaintenancePolicy {
	if p.IncrementalBatch > 0 && shards > 1 {
		p.IncrementalBatch = (p.IncrementalBatch + shards - 1) / shards
	}
	return p
}

// Forest is a set of partitioned BF-Trees behind the one-tree API. All
// shards index the same field of the same heap file and share one index
// page store; everything else — metadata snapshot, writer locks, limbo,
// maintainer — is per shard.
type Forest struct {
	store    *pagestore.Store
	file     *heapfile.File
	fieldIdx int
	// seps are the shard separators, strictly increasing,
	// len(trees)-1 of them: shard i owns [seps[i-1], seps[i]-1] with
	// the first shard reaching down to 0 and the last up to ^uint64(0).
	seps  []uint64
	trees []*core.Tree
}

// New bulk-loads a forest over field fieldIdx of file. Shards are built
// sequentially — each build is a full relation scan, and the scans
// share the store's cache — and every shard with MaintenanceAuto starts
// its own maintainer; Close drains them all.
func New(store *pagestore.Store, file *heapfile.File, fieldIdx int, opts Options) (*Forest, error) {
	n := opts.Shards
	if n == 0 {
		n = DefaultShards
	}
	if n < 1 {
		return nil, fmt.Errorf("%w: %d shards", core.ErrOptions, n)
	}
	seps, err := rangeSeparators(file, fieldIdx, n)
	if err != nil {
		return nil, err
	}
	f := &Forest{store: store, file: file, fieldIdx: fieldIdx, seps: seps}
	n = len(seps) + 1
	treeOpts := opts.Tree
	treeOpts.Maintenance = ShardPolicy(opts.Tree.Maintenance, n)
	for i := 0; i < n; i++ {
		tr, err := core.BulkLoadPartition(store, file, fieldIdx, treeOpts, f.partition(i))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.trees = append(f.trees, tr)
	}
	return f, nil
}

// partition builds shard i's Partition from the separators.
func (f *Forest) partition(i int) *core.Partition {
	lo, hi := f.bounds(i)
	return &core.Partition{KeyLo: lo, KeyHi: hi}
}

// bounds returns shard i's inclusive key interval.
func (f *Forest) bounds(i int) (lo, hi uint64) {
	if i > 0 {
		lo = f.seps[i-1]
	}
	hi = ^uint64(0)
	if i < len(f.seps) {
		hi = f.seps[i] - 1
	}
	return lo, hi
}

// rangeSeparators picks up to shards-1 strictly increasing cut keys
// from evenly spaced page boundaries of the (ordered) relation. A
// separator is a page's minimum key, so a duplicate run straddling the
// cut page belongs wholly to the higher shard — partitioning stays by
// key, never splitting a key's associations across shards. Relations
// with fewer distinct cut keys than requested shards yield fewer
// separators (and so fewer shards) rather than empty ranges.
func rangeSeparators(file *heapfile.File, fieldIdx, shards int) ([]uint64, error) {
	numPages := file.NumPages()
	first := file.FirstPage()
	var seps []uint64
	prev := uint64(0)
	for i := 1; i < shards; i++ {
		cut := uint64(i) * numPages / uint64(shards)
		if cut == 0 || cut >= numPages {
			continue
		}
		minKey, _, err := file.PageKeyRange(first+device.PageID(cut), fieldIdx)
		if err != nil {
			return nil, err
		}
		if minKey > prev {
			seps = append(seps, minKey)
			prev = minKey
		}
	}
	return seps, nil
}

// shardOf routes a key to its owning shard.
func (f *Forest) shardOf(key uint64) int {
	// First separator greater than key = count of separators ≤ key.
	lo, hi := 0, len(f.seps)
	for lo < hi {
		mid := (lo + hi) / 2
		if f.seps[mid] > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NumShards returns the effective shard count.
func (f *Forest) NumShards() int { return len(f.trees) }

// Shard returns shard i's tree — the seam the race and page-economy
// tests inspect per shard.
func (f *Forest) Shard(i int) *core.Tree { return f.trees[i] }

// FieldIndex returns the indexed field.
func (f *Forest) FieldIndex() int { return f.fieldIdx }

// Separators returns a copy of the cut keys.
func (f *Forest) Separators() []uint64 {
	return append([]uint64(nil), f.seps...)
}

// Search returns every association of key, routed to its owner shard.
func (f *Forest) Search(key uint64) (*core.Result, error) {
	return f.trees[f.shardOf(key)].Search(key)
}

// SearchFirst returns the first association of key.
func (f *Forest) SearchFirst(key uint64) (*core.Result, error) {
	return f.trees[f.shardOf(key)].SearchFirst(key)
}

// Insert adds a key→page association to the owner shard. Callers
// writing concurrently to the same shard follow the per-tree rules of
// DESIGN.md §3; writers on distinct shards never contend.
func (f *Forest) Insert(key uint64, pid device.PageID) error {
	return f.trees[f.shardOf(key)].Insert(key, pid)
}

// Delete removes a key→page association from the owner shard.
func (f *Forest) Delete(key uint64, pid device.PageID) error {
	return f.trees[f.shardOf(key)].Delete(key, pid)
}

// MultiSearch answers a batch of point lookups, fanned out by
// partition: keys group by owner shard, the per-shard batches run
// concurrently (each sharing descents and page reads within its shard),
// and the answers merge in shard order with stats summed. Every key
// lives in exactly one shard, so the merge needs no deduplication.
func (f *Forest) MultiSearch(keys []uint64) (*core.Result, error) {
	groups := make([][]uint64, len(f.trees))
	for _, k := range keys {
		s := f.shardOf(k)
		groups[s] = append(groups[s], k)
	}
	results := make([]*core.Result, len(f.trees))
	errs := make([]error, len(f.trees))
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, g []uint64) {
			defer wg.Done()
			results[i], errs[i] = f.trees[i].MultiSearch(g)
		}(i, g)
	}
	wg.Wait()
	res := &core.Result{}
	for i := range f.trees {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if results[i] != nil {
			res.Tuples = append(res.Tuples, results[i].Tuples...)
			res.Stats.Add(results[i].Stats)
		}
	}
	return res, nil
}

// Height returns the tallest shard's height.
func (f *Forest) Height() int {
	h := 0
	for _, tr := range f.trees {
		if th := tr.Height(); th > h {
			h = th
		}
	}
	return h
}

// NumNodes sums index pages across shards.
func (f *Forest) NumNodes() uint64 {
	var n uint64
	for _, tr := range f.trees {
		n += tr.NumNodes()
	}
	return n
}

// NumLeaves sums BF-leaves across shards.
func (f *Forest) NumLeaves() uint64 {
	var n uint64
	for _, tr := range f.trees {
		n += tr.NumLeaves()
	}
	return n
}

// NumKeys sums indexed distinct keys across shards (keys are disjoint
// between shards, so the sum is the forest's distinct count).
func (f *Forest) NumKeys() uint64 {
	var n uint64
	for _, tr := range f.trees {
		n += tr.NumKeys()
	}
	return n
}

// SizeBytes sums index bytes across shards.
func (f *Forest) SizeBytes() uint64 {
	var n uint64
	for _, tr := range f.trees {
		n += tr.SizeBytes()
	}
	return n
}

// EffectiveFPP reports the worst shard's Equation 14 drift estimate —
// the forest's probe cost is bounded by its most drifted shard.
func (f *Forest) EffectiveFPP() float64 {
	fpp := 0.0
	for _, tr := range f.trees {
		if e := tr.EffectiveFPP(); e > fpp {
			fpp = e
		}
	}
	return fpp
}

// InternalPages concatenates every shard's internal index pages (for
// cache warming).
func (f *Forest) InternalPages() ([]device.PageID, error) {
	var pids []device.PageID
	for _, tr := range f.trees {
		p, err := tr.InternalPages()
		if err != nil {
			return nil, err
		}
		pids = append(pids, p...)
	}
	return pids, nil
}

// Maintain runs one synchronous maintenance pass on every shard.
func (f *Forest) Maintain() error {
	var errs []error
	for _, tr := range f.trees {
		errs = append(errs, tr.Maintain())
	}
	return errors.Join(errs...)
}

// MaintenanceStats aggregates across shards; see AggregateMaintenance
// for the rules.
func (f *Forest) MaintenanceStats() core.MaintenanceStats {
	stats := make([]core.MaintenanceStats, len(f.trees))
	for i, tr := range f.trees {
		stats[i] = tr.MaintenanceStats()
	}
	return AggregateMaintenance(stats)
}

// AggregateMaintenance folds per-shard maintenance snapshots into one:
// counters and limbo sum, Running reports any live maintainer,
// EffectiveFPP is the worst shard's estimate (the forest's probe cost
// is bounded by its most drifted shard), and FPPThreshold the
// smallest non-zero shard threshold (the earliest point any shard
// compacts — the conservative bound a serving layer throttles on).
// Stall durations aggregate like the per-tree recorder: the max is
// the worst single writer stall any shard caused, the min the
// shortest non-zero recorded — shards that never compacted report
// zero and are excluded rather than pinning the minimum — and the
// total the sum.
func AggregateMaintenance(stats []core.MaintenanceStats) core.MaintenanceStats {
	var agg core.MaintenanceStats
	for _, s := range stats {
		agg.Running = agg.Running || s.Running
		agg.LimboPages += s.LimboPages
		if s.EffectiveFPP > agg.EffectiveFPP {
			agg.EffectiveFPP = s.EffectiveFPP
		}
		if s.FPPThreshold > 0 &&
			(agg.FPPThreshold == 0 || s.FPPThreshold < agg.FPPThreshold) {
			agg.FPPThreshold = s.FPPThreshold
		}
		agg.Passes += s.Passes
		agg.PagesReclaimed += s.PagesReclaimed
		agg.Compactions += s.Compactions
		agg.CompactionFailures += s.CompactionFailures
		agg.IncrementalPasses += s.IncrementalPasses
		agg.LeavesCompacted += s.LeavesCompacted
		if s.CompactionMaxStall > agg.CompactionMaxStall {
			agg.CompactionMaxStall = s.CompactionMaxStall
		}
		if s.CompactionMinStall > 0 &&
			(agg.CompactionMinStall == 0 || s.CompactionMinStall < agg.CompactionMinStall) {
			agg.CompactionMinStall = s.CompactionMinStall
		}
		agg.CompactionTotalStall += s.CompactionTotalStall
		agg.ProbeWakeups += s.ProbeWakeups
		agg.StructuralRequests += s.StructuralRequests
		agg.DriftWakeups += s.DriftWakeups
		agg.TimerWakeups += s.TimerWakeups
		agg.LockMisses += s.LockMisses
		agg.ForcedLocks += s.ForcedLocks
	}
	return agg
}

// Close stops every shard's maintainer and reclaims their limbo.
func (f *Forest) Close() error {
	var errs []error
	for _, tr := range f.trees {
		errs = append(errs, tr.Close())
	}
	return errors.Join(errs...)
}
