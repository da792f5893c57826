package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
	"bftree/internal/workload"
)

const (
	pageSize  = 4096
	designFPP = 1e-3

	// workers is the closed-loop caller count of every workload: one
	// goroutine (and one loadgen connection) per core of the 2-core host
	// the baseline was taken on.
	workers = 2

	forestShards = 4

	// sampleKeys is how many keys never deleted in a round are looked up
	// after its window; every one must be found.
	sampleKeys = 1000
)

// spec is one workload: what is mounted, how it is reached, and the
// operation stream driven against it. Why each exists is recorded in
// BENCHMARK.json and README.md.
type spec struct {
	name string

	backend string // registry name
	http    bool   // behind internal/server on loopback, reached by loadgen
	mix     workload.Mix
	dist    workload.Dist
	skew    float64

	// idxCache and dataCache size the LRU of the index and data page
	// stores in pages; 0 leaves a store uncached, as cmd/bfserve does.
	idxCache, dataCache int

	// warmup runs before each window, off the clock.
	warmup time.Duration
}

// specs are the benchmark's workloads. Their names are cited by later
// changes; do not rename them.
var specs = []*spec{
	{
		name:    "oltp-http",
		backend: "bftree", http: true,
		mix: workload.OLTPMix(), dist: workload.DistUniform,
		warmup: time.Second,
	},
	{
		name:    "point-zipf",
		backend: "bftree",
		mix:     pointMix(), dist: workload.DistZipf, skew: 1.2,
		idxCache: 256, dataCache: 2048,
		warmup: 500 * time.Millisecond,
	},
	{
		name:    "scan-http",
		backend: "bftree", http: true,
		mix: workload.ReportingMix(), dist: workload.DistUniform,
		warmup: 500 * time.Millisecond,
	},
	{
		name:    "churn-http",
		backend: "bfforest", http: true,
		mix: churnMix(), dist: workload.DistUniform,
		warmup: time.Second,
	},
}

func pointMix() workload.Mix {
	m := workload.Mix{Name: "point"}
	m.Weights[workload.OpSearch] = 1
	return m
}

// churnMix is the compaction-stall experiment's delete-heavy mix.
func churnMix() workload.Mix {
	m := workload.Mix{Name: "churn"}
	m.Weights[workload.OpDelete] = 0.45
	m.Weights[workload.OpInsert] = 0.35
	m.Weights[workload.OpSearch] = 0.20
	return m
}

func specByName(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

// roundSeed derives a round's seed from the run seed, so every round
// draws its own ops and sample keys.
func roundSeed(seed int64, round int) int64 { return seed*1000 + int64(round) }

// streams builds the round's per-worker operation streams.
func (s *spec) streams(fx *fixture, seed int64, round int) ([]*workload.OpStream, error) {
	out := make([]*workload.OpStream, workers)
	for w := range out {
		st, err := workload.NewOpStream(s.mix, workload.StreamConfig{
			Dist:    s.dist,
			Skew:    s.skew,
			NumKeys: fx.numKeys,
			Worker:  w,
			Workers: workers,
			Seed:    roundSeed(seed, round),
		})
		if err != nil {
			return nil, err
		}
		out[w] = st
	}
	return out, nil
}

// fixture is the relation every workload runs on: the synthetic relation
// R with a dense primary key 0..numKeys-1. It is the benchmark's input,
// generated once per run; writes only re-add or drop index associations,
// so the data pages never change.
type fixture struct {
	dataDev *device.Device
	file    *heapfile.File
	numKeys uint64
}

func newFixture(tuples uint64, seed int64) (*fixture, error) {
	dev := device.New(device.Memory, pageSize)
	syn, err := workload.GenerateSynthetic(pagestore.New(dev), tuples, 11, seed)
	if err != nil {
		return nil, err
	}
	return &fixture{dataDev: dev, file: syn.File, numKeys: syn.MaxPK + 1}, nil
}

func (fx *fixture) refOf(key uint64) index.Ref {
	per := uint64(fx.file.TuplesPerPage())
	return index.Ref{Page: fx.file.PageOf(key), Slot: uint16(key % per)}
}

// servedOptions are the build options cmd/bfserve mounts with.
func servedOptions() index.Options {
	return index.Options{
		BFTree: core.Options{
			FPP: designFPP,
			Maintenance: core.MaintenancePolicy{
				Mode:             core.MaintenanceAuto,
				ReclaimInterval:  time.Millisecond,
				IncrementalBatch: 8,
			},
		},
		ForestShards: forestShards,
	}
}

// target is the surface the driver calls. *loadgen.Client has it, and so
// do the bftree and bfforest index adapters.
type target interface {
	SearchFirst(key uint64) (*index.Result, error)
	RangeScan(lo, hi uint64) (*index.Result, error)
	index.MultiSearcher
	index.Scanner
	index.Inserter
	index.Deleter
}

// mount is one round's system under test: a freshly built index, and for
// HTTP workloads the server and the loadgen client in front of it.
type mount struct {
	ix        index.Index // the backend itself, never the span recorder
	maint     index.Maintainer
	idxDev    *device.Device
	idxStore  *pagestore.Store
	dataStore *pagestore.Store
	target    target

	hs     *http.Server
	served chan error // hs.Serve's return
	client *loadgen.Client
}

// mount builds the workload's index over fx and, for HTTP workloads,
// serves it on a loopback listener and dials it. This is the set-up the
// setup_s metric times. A non-nil rec wraps the index in a span recorder.
func (s *spec) mount(fx *fixture, rec *recorder) (*mount, error) {
	b, ok := index.Lookup(s.backend)
	if !ok {
		return nil, fmt.Errorf("bfperf: unknown backend %q", s.backend)
	}
	m := &mount{idxDev: device.New(device.Memory, pageSize)}
	m.idxStore = pagestore.New(m.idxDev, pagestore.WithCache(s.idxCache))
	file := fx.file
	m.dataStore = file.Store()
	if s.dataCache > 0 {
		// A cached view over the same data pages, fresh every round.
		m.dataStore = pagestore.New(fx.dataDev, pagestore.WithCache(s.dataCache))
		var err error
		file, err = heapfile.Open(m.dataStore, file.Schema(), file.FirstPage(), file.NumPages(), file.NumTuples())
		if err != nil {
			return nil, err
		}
	}
	ix, err := index.New(s.backend, m.idxStore, file, 0, servedOptions())
	if err != nil {
		return nil, err
	}
	m.ix = ix
	m.maint, _ = ix.(index.Maintainer)

	mounted := ix
	if rec != nil {
		if mounted, err = newTracedIndex(ix, rec); err != nil {
			ix.Close()
			return nil, err
		}
	}
	if !s.http {
		t, ok := mounted.(target)
		if !ok {
			ix.Close()
			return nil, fmt.Errorf("bfperf: backend %q lacks the driven capabilities", s.backend)
		}
		m.target = t
		return m, nil
	}

	// The admission gate is off (cmd/bfserve -backpressure 1): the server
	// still reads the drift estimate on every write but refuses none, so
	// no op fails and none waits out a retry pause, which on a host whose
	// sleeps overshoot by about 1ms would time the timer.
	srv := server.New(mounted, server.Options{
		SerializeWrites:      !b.ConcurrentWriters,
		BackpressureFraction: 1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ix.Close()
		return nil, err
	}
	m.hs = &http.Server{Handler: srv}
	m.served = make(chan error, 1)
	go func() { m.served <- m.hs.Serve(ln) }()
	m.client, err = loadgen.Dial("http://"+ln.Addr().String(), loadgen.Options{Connections: workers})
	if err != nil {
		m.close()
		return nil, err
	}
	m.target = m.client
	return m, nil
}

// close stops the client, drains the server and closes the index, then
// audits the index device: every page is live, free or in limbo.
func (m *mount) close() error {
	var errs []error
	if m.client != nil {
		m.client.Close()
	}
	if m.hs != nil {
		// Shutdown waits for in-flight handlers, so none is still inside
		// the index when it closes.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := m.hs.Shutdown(ctx); err != nil {
			errs = append(errs, err, m.hs.Close())
		}
		cancel()
		if err := <-m.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if err := m.ix.Close(); err != nil {
		return errors.Join(append(errs, err)...)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var limbo uint64
	if m.maint != nil {
		limbo = uint64(m.maint.MaintenanceStats().LimboPages)
	}
	live, free, dev := m.ix.Stats().Pages, uint64(m.idxStore.FreePages()), m.idxDev.NumPages()
	if live+free+limbo != dev {
		return wrongf("page-economy", "live %d + free %d + limbo %d != device %d", live, free, limbo, dev)
	}
	return nil
}

// wrongAnswer is a failed correctness check. It is fatal: the run names
// the check and exits non-zero.
type wrongAnswer struct {
	check  string
	detail string
}

func (e *wrongAnswer) Error() string { return "check " + e.check + " failed: " + e.detail }

func wrongf(check, format string, args ...any) error {
	return &wrongAnswer{check: check, detail: fmt.Sprintf(format, args...)}
}

func pk(tuple []byte) uint64 { return workload.SyntheticSchema.Get(tuple, 0) }

// checkPoint: every tuple a point lookup returns carries the probed key.
func checkPoint(key uint64, tuples [][]byte) error {
	for _, t := range tuples {
		if k := pk(t); k != key {
			return wrongf("point-key", "search %d returned key %d", key, k)
		}
	}
	return nil
}

// checkMulti: every tuple a batched lookup returns carries a batch key.
func checkMulti(keys []uint64, tuples [][]byte) error {
	want := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		want[k] = true
	}
	for _, t := range tuples {
		if k := pk(t); !want[k] {
			return wrongf("multi-key", "batch of %d keys returned key %d", len(keys), k)
		}
	}
	return nil
}

// checkRange: a scan of [lo, hi] over the dense key domain returns every
// key in the range exactly once, or, under a LIMIT, exactly min(limit,
// range size) distinct keys from it. Order is not checked: the BF-tree
// emits a boundary leaf's pages in Bloom-probe order, so false-positive
// pages can come out early.
func checkRange(lo, hi uint64, limit int, tuples [][]byte) error {
	want := hi - lo + 1
	if limit > 0 && uint64(limit) < want {
		want = uint64(limit)
	}
	if uint64(len(tuples)) != want {
		return wrongf("range-count", "scan [%d,%d] limit %d returned %d tuples, want %d", lo, hi, limit, len(tuples), want)
	}
	seen := make(map[uint64]bool, len(tuples))
	for _, t := range tuples {
		k := pk(t)
		if k < lo || k > hi {
			return wrongf("range-bounds", "scan [%d,%d] returned key %d", lo, hi, k)
		}
		if seen[k] {
			return wrongf("range-once", "scan [%d,%d] returned key %d twice", lo, hi, k)
		}
		seen[k] = true
	}
	return nil
}

// execute runs one operation against t and checks its answer. A
// *wrongAnswer is a correctness failure; any other error is a failed op.
func execute(t target, fx *fixture, op workload.Op) (index.ProbeStats, error) {
	switch op.Kind {
	case workload.OpSearch:
		res, err := t.SearchFirst(op.Key)
		if err != nil {
			return index.ProbeStats{}, err
		}
		return res.Stats, checkPoint(op.Key, res.Tuples)
	case workload.OpMultiSearch:
		res, err := t.MultiSearch(op.Keys)
		if err != nil {
			return index.ProbeStats{}, err
		}
		return res.Stats, checkMulti(op.Keys, res.Tuples)
	case workload.OpRangeScan:
		res, err := t.RangeScan(op.Key, op.Hi)
		if err != nil {
			return index.ProbeStats{}, err
		}
		return res.Stats, checkRange(op.Key, op.Hi, 0, res.Tuples)
	case workload.OpScanLimit:
		// Scan, Next up to the limit, Close: what internal/bench's driver
		// does for a scan-limit op.
		it, err := t.Scan(op.Key, op.Hi)
		if err != nil {
			return index.ProbeStats{}, err
		}
		var tuples [][]byte
		for len(tuples) < op.Limit && it.Next() {
			tuples = append(tuples, it.Tuple())
		}
		st := it.Stats()
		err = it.Err()
		if cerr := it.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return st, err
		}
		return st, checkRange(op.Key, op.Hi, op.Limit, tuples)
	case workload.OpInsert:
		return index.ProbeStats{}, t.Insert(op.Key, fx.refOf(op.Key))
	case workload.OpDelete:
		return index.ProbeStats{}, t.Delete(op.Key, fx.refOf(op.Key))
	}
	return index.ProbeStats{}, fmt.Errorf("bfperf: unknown op kind %v", op.Kind)
}

// checkSample looks up sampleKeys keys that no op deleted this round;
// each must be found. The keys are drawn from the round's seed.
func checkSample(t target, fx *fixture, deleted map[uint64]bool, seed int64, round int) error {
	// Stream index `workers` is past every worker's op stream.
	rng := workload.SubStream(roundSeed(seed, round), workers)
	for n := 0; n < sampleKeys && len(deleted) < int(fx.numKeys); {
		k := rng.Uint64n(fx.numKeys)
		if deleted[k] {
			continue
		}
		n++
		res, err := t.SearchFirst(k)
		if err != nil {
			return fmt.Errorf("bfperf: sample lookup %d: %w", k, err)
		}
		if len(res.Tuples) == 0 {
			return wrongf("sample-found", "key %d, never deleted this round, not found", k)
		}
		if err := checkPoint(k, res.Tuples); err != nil {
			return err
		}
	}
	return nil
}
