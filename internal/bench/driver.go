package bench

import (
	"fmt"
	"sync"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/workload"
)

// This file is the execution half of the workload engine (DESIGN.md
// §8): one Driver runs any operation stream — a workload.Mix preset or
// an experiment's bespoke source — against any drive target through the
// capability interfaces. Every concurrency experiment (concurrent-probe,
// mixed-rw, multi-writer, churn, shard-scale, mixed-workload) routes its
// worker pool, latency recording and stop condition through Drive, so
// worker setup, warm-up, quota splitting and quantile math exist once.

// Target is the op surface the Driver requires: every op kind but
// delete. index.Index, *loadgen.Client and coreTarget satisfy it;
// deletes are discovered per target via index.Deleter.
type Target interface {
	Search(key uint64) (*index.Result, error)
	SearchFirst(key uint64) (*index.Result, error)
	RangeScan(lo, hi uint64) (*index.Result, error)
	index.Scanner
	index.MultiSearcher
	index.Inserter
}

// coreTarget adapts *core.Tree to Target and index.Deleter: the tree's
// page-keyed Insert/Delete become the Ref-keyed capability signatures
// (the slot is ignored, exactly as in the bftree index backend), and
// Scan is the boundary-optimized cursor, as in that backend. The
// embedded tree supplies the probe methods.
type coreTarget struct{ *core.Tree }

func (c coreTarget) Insert(key uint64, ref index.Ref) error     { return c.Tree.Insert(key, ref.Page) }
func (c coreTarget) Delete(key uint64, ref index.Ref) error     { return c.Tree.Delete(key, ref.Page) }
func (c coreTarget) Scan(lo, hi uint64) (index.Iterator, error) { return c.Tree.ScanOptimized(lo, hi) }

// OpSource yields one worker's operation sequence: Source(w) is called
// once per worker and the returned draw function is called from that
// worker's goroutine only, so sources need no internal locking.
type OpSource func(worker int) func() workload.Op

// DriverConfig configures one Drive run.
type DriverConfig struct {
	// Workers is the goroutine count; 0 selects 1.
	Workers int
	// Ops is the total operation budget, split into per-worker quotas
	// (worker w runs Ops/Workers ops, the first Ops%Workers workers one
	// more) — deterministic per-worker counts, so a seeded run is
	// reproducible at any worker count. Ignored when Until is set.
	Ops int
	// Until, when non-nil, replaces the quota stop condition: workers
	// draw ops until the channel closes (churn's reader pool).
	Until <-chan struct{}
	// Warmup ops per worker run before the measured window opens;
	// executed but not counted, timed or reported.
	Warmup int
	// Source yields each worker's op stream. Required.
	Source OpSource
	// RefOf maps an insert/delete key to the tuple ref the capability
	// call needs. Required when the source emits writes.
	RefOf func(key uint64) index.Ref
	// SerializeWrites serializes writers behind an RWMutex (readers
	// proceed shared) — the drive mode for targets without the
	// ConcurrentWriters registry trait, which are read-safe only while
	// no writer runs.
	SerializeWrites bool
	// OnOp, when non-nil, runs on the worker goroutine after each
	// measured op completes; i is the worker-local op ordinal. Churn's
	// drift/limbo sampling hooks in here.
	OnOp func(worker, i int, op workload.Op)
	// Apply, when non-nil, replaces the capability dispatch: the op is
	// executed (and timed) by this closure instead, and Drive's target
	// is unused (pass nil). Experiments whose op execution needs extra
	// state under the clock — shard-scale's lock-allocate-insert append
	// — plug in here and still share the pool, quotas and quantile
	// plumbing.
	Apply func(worker int, op workload.Op) error
	// UseSearchFirst makes search ops probe via SearchFirst (the
	// primary-key early exit) instead of Search.
	UseSearchFirst bool
}

// KindStats aggregates the measured ops of one op kind.
type KindStats struct {
	Ops        int
	P50, P99   time.Duration
	FalseReads int
	Tuples     int
}

// DriverResult is one Drive run's outcome. Kinds is indexed by
// workload.OpKind; Moves is filled by DriveMix with the capability
// redistribution that produced the executed mix.
type DriverResult struct {
	Workers    int
	Ops        int
	Elapsed    time.Duration
	Throughput float64 // measured ops per second of wall time
	P50, P99   time.Duration

	Kinds [workload.NumOpKinds]KindStats
	Moves []workload.Move

	// Probe sums the cost accounting of every measured op's Result.
	Probe index.ProbeStats
	// Maintenance is the target's post-run snapshot when it implements
	// index.Maintainer, nil otherwise.
	Maintenance *index.MaintenanceStats
}

// opQuotas splits ops into per-worker quotas: base share everywhere,
// the remainder on the lowest workers.
func opQuotas(ops, workers int) []int {
	q := make([]int, workers)
	for w := range q {
		q[w] = ops / workers
		if w < ops%workers {
			q[w]++
		}
	}
	return q
}

// opLat is one measured op's latency sample.
type opLat struct {
	kind workload.OpKind
	d    time.Duration
}

// Drive executes the configured operation streams against t from
// Workers goroutines and aggregates throughput, per-kind latency
// quantiles and probe-cost accounting. The first worker error aborts
// the run.
func Drive(t Target, cfg DriverConfig) (*DriverResult, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("bench: driver needs an op source")
	}
	if cfg.Ops <= 0 && cfg.Until == nil {
		return nil, fmt.Errorf("bench: driver needs an op budget or an until channel")
	}

	del, _ := t.(index.Deleter)

	var writeMu sync.RWMutex
	readLock, readUnlock := func() {}, func() {}
	writeLock, writeUnlock := func() {}, func() {}
	if cfg.SerializeWrites {
		readLock, readUnlock = writeMu.RLock, writeMu.RUnlock
		writeLock, writeUnlock = writeMu.Lock, writeMu.Unlock
	}

	exec := func(w int, op workload.Op) (*index.Result, error) {
		if cfg.Apply != nil {
			return nil, cfg.Apply(w, op)
		}
		switch op.Kind {
		case workload.OpSearch:
			readLock()
			defer readUnlock()
			if cfg.UseSearchFirst {
				return t.SearchFirst(op.Key)
			}
			return t.Search(op.Key)
		case workload.OpRangeScan:
			readLock()
			defer readUnlock()
			return t.RangeScan(op.Key, op.Hi)
		case workload.OpMultiSearch:
			readLock()
			defer readUnlock()
			return t.MultiSearch(op.Keys)
		case workload.OpScanLimit:
			readLock()
			defer readUnlock()
			it, err := t.Scan(op.Key, op.Hi)
			if err != nil {
				return nil, err
			}
			res := &index.Result{}
			for len(res.Tuples) < op.Limit && it.Next() {
				res.Tuples = append(res.Tuples, it.Tuple())
			}
			res.Stats = it.Stats()
			err = it.Err()
			if cerr := it.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			return res, nil
		case workload.OpInsert, workload.OpDelete:
			if cfg.RefOf == nil {
				return nil, fmt.Errorf("bench: driver op %v needs a RefOf", op.Kind)
			}
			ref := cfg.RefOf(op.Key)
			writeLock()
			defer writeUnlock()
			if op.Kind == workload.OpInsert {
				return nil, t.Insert(op.Key, ref)
			}
			if del == nil {
				return nil, fmt.Errorf("bench: driver op %v unsupported by target (mix not redistributed?)", op.Kind)
			}
			return nil, del.Delete(op.Key, ref)
		}
		return nil, fmt.Errorf("bench: driver got unknown op kind %v", op.Kind)
	}

	var quotas []int
	if cfg.Until == nil {
		quotas = opQuotas(cfg.Ops, workers)
	}

	lats := make([][]opLat, workers)
	falseReads := make([][workload.NumOpKinds]int, workers)
	tuples := make([][workload.NumOpKinds]int, workers)
	probes := make([]index.ProbeStats, workers)
	errs := make([]error, workers)

	// Warm up off the clock: every worker runs its warm-up ops, then all
	// block on the start gate so the measured window opens for everyone
	// at once.
	var warmWg, wg sync.WaitGroup
	startGate := make(chan struct{})
	for w := 0; w < workers; w++ {
		warmWg.Add(1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := cfg.Source(w)
			for i := 0; i < cfg.Warmup; i++ {
				if _, err := exec(w, next()); err != nil {
					errs[w] = err
					break
				}
			}
			warmWg.Done()
			if errs[w] != nil {
				return
			}
			<-startGate
			for i := 0; ; i++ {
				if cfg.Until != nil {
					select {
					case <-cfg.Until:
						return
					default:
					}
				} else if i >= quotas[w] {
					return
				}
				op := next()
				t0 := time.Now()
				res, err := exec(w, op)
				d := time.Since(t0)
				if err != nil {
					errs[w] = err
					return
				}
				lats[w] = append(lats[w], opLat{kind: op.Kind, d: d})
				if res != nil {
					falseReads[w][op.Kind] += res.Stats.FalseReads
					tuples[w][op.Kind] += len(res.Tuples)
					addProbeStats(&probes[w], res.Stats)
				}
				if cfg.OnOp != nil {
					cfg.OnOp(w, i, op)
				}
			}
		}(w)
	}
	warmWg.Wait()
	start := time.Now()
	close(startGate)
	wg.Wait()
	elapsed := time.Since(start)

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res := &DriverResult{Workers: workers, Elapsed: elapsed}
	var all []time.Duration
	perKind := make([][]time.Duration, workload.NumOpKinds)
	for w := 0; w < workers; w++ {
		for _, l := range lats[w] {
			all = append(all, l.d)
			perKind[l.kind] = append(perKind[l.kind], l.d)
		}
		for k := workload.OpKind(0); k < workload.NumOpKinds; k++ {
			res.Kinds[k].FalseReads += falseReads[w][k]
			res.Kinds[k].Tuples += tuples[w][k]
		}
		addProbeStats(&res.Probe, probes[w])
	}
	res.Ops = len(all)
	res.P50, res.P99 = latencyQuantiles(all)
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	for k := workload.OpKind(0); k < workload.NumOpKinds; k++ {
		res.Kinds[k].Ops = len(perKind[k])
		res.Kinds[k].P50, res.Kinds[k].P99 = latencyQuantiles(perKind[k])
	}
	if m, ok := t.(index.Maintainer); ok {
		snap := m.MaintenanceStats()
		res.Maintenance = &snap
	}
	return res, nil
}

// addProbeStats accumulates s into dst.
func addProbeStats(dst *index.ProbeStats, s index.ProbeStats) {
	dst.IndexReads += s.IndexReads
	dst.BFProbes += s.BFProbes
	dst.CandidatePages += s.CandidatePages
	dst.DataPagesRead += s.DataPagesRead
	dst.FalseReads += s.FalseReads
}

// targetCaps derives the workload-facing capability set of a target
// from its discovered interfaces.
func targetCaps(t Target) workload.Caps {
	return workload.Caps{Delete: index.Capabilities(t).Delete}
}

// MixConfig configures DriveMix: a preset (or custom) Mix, the key
// domain and distribution, and the Drive knobs.
type MixConfig struct {
	Mix workload.Mix
	// Dist and Skew pick the key-choice distribution.
	Dist workload.Dist
	Skew float64
	// NumKeys and KeyAt define the key domain (see
	// workload.StreamConfig).
	NumKeys uint64
	KeyAt   func(rank uint64) uint64
	Seed    int64

	Workers         int
	Ops             int
	Warmup          int
	Until           <-chan struct{}
	RefOf           func(key uint64) index.Ref
	SerializeWrites bool
	UseSearchFirst  bool
	OnOp            func(worker, i int, op workload.Op)
}

// DriveMix is the front door of the workload engine: it redistributes
// the mix along t's declared capabilities (reporting every move in the
// result), builds one deterministic op stream per worker from the run
// seed, and executes them through Drive.
func DriveMix(t Target, cfg MixConfig) (*DriverResult, error) {
	mix, moves := cfg.Mix.Redistribute(targetCaps(t))
	if mix.WriteFraction() > 0 && cfg.RefOf == nil {
		return nil, fmt.Errorf("bench: mix %q has writes but no RefOf", cfg.Mix.Name)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	streams := make([]*workload.OpStream, workers)
	for w := range streams {
		s, err := workload.NewOpStream(mix, workload.StreamConfig{
			Dist:    cfg.Dist,
			Skew:    cfg.Skew,
			NumKeys: cfg.NumKeys,
			KeyAt:   cfg.KeyAt,
			Worker:  w,
			Workers: workers,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		streams[w] = s
	}
	res, err := Drive(t, DriverConfig{
		Workers:         workers,
		Ops:             cfg.Ops,
		Until:           cfg.Until,
		Warmup:          cfg.Warmup,
		Source:          func(w int) func() workload.Op { return streams[w].Next },
		RefOf:           cfg.RefOf,
		SerializeWrites: cfg.SerializeWrites,
		UseSearchFirst:  cfg.UseSearchFirst,
		OnOp:            cfg.OnOp,
	})
	if err != nil {
		return nil, err
	}
	res.Moves = moves
	return res, nil
}
