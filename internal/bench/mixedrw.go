package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/heapfile"
	"bftree/internal/workload"
)

// MixedRWReaderCounts is the reader sweep of the mixed-rw experiment.
var MixedRWReaderCounts = []int{1, 2, 4, 8}

// mixedRWLatency is the real per-I/O blocking time imposed on both
// devices during the measured phase (see Device.SetRealLatency and the
// concurrent-probe experiment it follows). It applies to the writer's
// page I/O too, so readers and the writer contend for nothing but the
// software path — exactly what the single-writer/multi-reader contract
// claims is free of locks on the read side.
const mixedRWLatency = 100 * time.Microsecond

// MixedRWResult is one row of the sweep: reader-side throughput and
// tail latency while one writer streams appends through the COW
// structural path.
type MixedRWResult struct {
	Readers       int
	Probes        int
	Elapsed       time.Duration
	Throughput    float64 // probes per second of wall time
	P50           time.Duration
	P99           time.Duration
	WriterInserts int64   // inserts the live writer completed meanwhile
	WriterRate    float64 // inserts per second over the measured window
	PagesAdded    uint64  // index pages the writer's structural changes added
	FreedPages    uint64  // COW pages reclaimed through the free list
}

// MixedRWSweep measures probe throughput and latency at each reader
// count while a single writer continuously appends new tuples to the
// relation and inserts them — forcing fresh leaves, capacity splits and
// root growth through the copy-on-write path, concurrently with every
// probe. Each row runs against a fresh tree so rows stay comparable.
// The reader pool runs through the shared Driver (RunConcurrentProbes);
// the background appender below is fixture machinery — it grows the
// relation the readers race, and is not itself measured.
func MixedRWSweep(scale Scale, readerCounts []int) ([]*MixedRWResult, error) {
	probes := max(scale.Probes, 64)
	n := max(scale.SyntheticTuples, 1024)
	var out []*MixedRWResult
	for _, readers := range readerCounts {
		env, rel, ix, err := buildCell(memMem, 0, keyedRel(n, 1), "bftree", core.Options{FPP: 1e-3})
		if err != nil {
			return nil, err
		}
		file := rel.file
		// Probe keys come from the run seed's sub-stream, so the probed
		// set is reproducible from -seed like every other driver input.
		keys := make([]uint64, 512)
		krng := workload.SubStream(scale.Seed, 0)
		for i := range keys {
			keys[i] = krng.Uint64n(n)
		}
		pages0 := ix.Stats().Pages
		env.IdxDev.SetRealLatency(mixedRWLatency)
		env.DataDev.SetRealLatency(mixedRWLatency)

		stop := make(chan struct{})
		writerDone := make(chan error, 1)
		var inserted atomic.Int64
		go func() { // the single writer: append one data page per batch
			perPage := file.TuplesPerPage()
			next := n
			tup := make([]byte, keyedSchema.TupleSize)
			for {
				select {
				case <-stop:
					writerDone <- nil
					return
				default:
				}
				b, err := heapfile.NewBuilder(env.DataStore, keyedSchema)
				if err != nil {
					writerDone <- err
					return
				}
				for i := 0; i < perPage; i++ {
					keyedSchema.Set(tup, 0, next+uint64(i))
					if err := b.Append(tup); err != nil {
						writerDone <- err
						return
					}
				}
				seg, err := b.Finish()
				if err != nil {
					writerDone <- err
					return
				}
				file.Extend(seg.NumPages(), seg.NumTuples())
				for i := 0; i < perPage; i++ {
					if err := ix.Insert(next+uint64(i), index.Ref{Page: seg.FirstPage()}); err != nil {
						writerDone <- err
						return
					}
					inserted.Add(1)
				}
				next += uint64(perPage)
			}
		}()

		// Bound the writer accounting to the measured probe window:
		// inserts during the writer's ramp-up and its final in-flight
		// batch after stop would otherwise inflate the reported rate.
		insBefore := inserted.Load()
		r, probeErr := RunConcurrentProbes(ix, keys, readers, probes)
		insDuring := inserted.Load() - insBefore
		close(stop)
		werr := <-writerDone
		env.IdxDev.SetRealLatency(0)
		env.DataDev.SetRealLatency(0)
		if probeErr != nil {
			return nil, probeErr
		}
		if werr != nil {
			return nil, fmt.Errorf("bench: mixed-rw writer: %w", werr)
		}
		freed, _ := env.IdxStore.FreeListStats()
		pagesAdded := ix.Stats().Pages - pages0
		if err := ix.Close(); err != nil {
			return nil, err
		}
		out = append(out, &MixedRWResult{
			Readers:       readers,
			Probes:        r.Probes,
			Elapsed:       r.Elapsed,
			Throughput:    r.Throughput,
			P50:           r.P50,
			P99:           r.P99,
			WriterInserts: insDuring,
			WriterRate:    float64(insDuring) / r.Elapsed.Seconds(),
			PagesAdded:    pagesAdded,
			FreedPages:    freed,
		})
	}
	return out, nil
}

// RunMixedRW is the `mixed-rw` experiment: reader throughput and
// p50/p99 under a live writer streaming inserts, at 1/2/4/8 reader
// workers. The writer's structural changes (new leaves, splits, root
// growth) go through the copy-on-write path, so reader throughput
// scaling here demonstrates the single-writer/multi-reader contract:
// probes never block on the writer, and a probe racing a split sees
// either the pre- or post-split tree, never a torn one.
func RunMixedRW(scale Scale) (*Table, error) {
	results, err := MixedRWSweep(scale, MixedRWReaderCounts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Mixed read/write: probes vs one streaming writer, %v per page access", mixedRWLatency),
		Header: []string{"readers", "probes", "wall time", "probes/s", "speedup", "p50", "p99", "writer ins/s", "pages+", "pages freed"},
		Notes: []string{
			"one writer streams appends (fresh leaves, capacity splits, root growth)",
			"through the COW path for the whole measured window; readers never block.",
			"speedup is reader throughput relative to the 1-reader row; pages freed",
			"counts retired COW pages reclaimed through the store free list.",
		},
	}
	base := results[0].Throughput
	for _, r := range results {
		t.AddRow(
			fmt.Sprint(r.Readers),
			fmt.Sprint(r.Probes),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2fx", r.Throughput/base),
			r.P50.Round(10*time.Microsecond).String(),
			r.P99.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%.0f", r.WriterRate),
			fmt.Sprint(r.PagesAdded),
			fmt.Sprint(r.FreedPages),
		)
	}
	return t, nil
}
