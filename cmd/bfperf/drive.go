package main

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/workload"
)

// workerLog is one closed-loop caller's record of a drive.
type workerLog struct {
	lat               latencies // successful ops
	attempted, failed int
	failure           error // the first failed op's error
	probe             index.ProbeStats
	deleted           []uint64
	spans             []opSpan // traced windows only
}

// drive runs one closed loop per stream against t until the deadline:
// each worker sends its next op only after the previous reply. Failed ops
// are counted; a wrong answer stops the drive and is returned.
func drive(t target, fx *fixture, streams []*workload.OpStream, until time.Time, rec *recorder) ([]*workerLog, error) {
	logs := make([]*workerLog, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for w := range streams {
		logs[w] = &workerLog{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = logs[w].run(t, fx, streams[w], until, rec)
		}(w)
	}
	wg.Wait()
	return logs, errors.Join(errs...)
}

func (l *workerLog) run(t target, fx *fixture, s *workload.OpStream, until time.Time, rec *recorder) error {
	for time.Now().Before(until) {
		op := s.Next()
		var spanStart int64
		if rec != nil {
			spanStart = rec.now()
		}
		start := time.Now()
		st, err := execute(t, fx, op)
		d := time.Since(start)
		if rec != nil {
			l.spans = append(l.spans, opSpan{kind: op.Kind, key: firstKey(op), start: spanStart, end: rec.now()})
		}
		l.attempted++
		if op.Kind == workload.OpDelete {
			// Counted whether or not the delete succeeded: the sample
			// check only looks up keys no op tried to delete.
			l.deleted = append(l.deleted, op.Key)
		}
		var wrong *wrongAnswer
		if errors.As(err, &wrong) {
			return err
		}
		if err != nil {
			l.failed++
			if l.failure == nil {
				l.failure = err
			}
			continue
		}
		l.lat.record(d, op.Kind == workload.OpInsert || op.Kind == workload.OpDelete)
		addProbe(&l.probe, st)
	}
	return nil
}

func firstKey(op workload.Op) uint64 {
	if op.Kind == workload.OpMultiSearch && len(op.Keys) > 0 {
		return op.Keys[0]
	}
	return op.Key
}

func addProbe(dst *index.ProbeStats, s index.ProbeStats) {
	dst.IndexReads += s.IndexReads
	dst.BFProbes += s.BFProbes
	dst.CandidatePages += s.CandidatePages
	dst.DataPagesRead += s.DataPagesRead
	dst.FalseReads += s.FalseReads
}

// snapshot holds the counters a window's per-layer metrics are deltas of.
type snapshot struct {
	idx, data                                device.Stats
	idxHits, idxMisses, dataHits, dataMisses uint64
	maint                                    index.MaintenanceStats
	alloc                                    uint64
	gcs                                      uint32
}

func (m *mount) snapshot() snapshot {
	var s snapshot
	s.idx = m.idxDev.Stats()
	s.data = m.dataStore.Device().Stats()
	s.idxHits, s.idxMisses = m.idxStore.CacheStats()
	s.dataHits, s.dataMisses = m.dataStore.CacheStats()
	if m.maint != nil {
		s.maint = m.maint.MaintenanceStats()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc, s.gcs = ms.TotalAlloc, ms.NumGC
	return s
}

// roundOut is one round of one workload: every metric's value in that
// round, plus what the run's result line and span dump need.
type roundOut struct {
	values            map[string]float64
	lat               *latencies
	attempted, failed int
	failure           error
	spans             [][]opSpan // traced rounds: per worker, with index time joined in
	checks            int        // correctness checks that ran
}

// runner runs rounds of any workload over one fixture.
type runner struct {
	fx     *fixture
	seed   int64
	window time.Duration
	warmup time.Duration // overrides each workload's own when positive
	log    io.Writer     // where failed ops are reported
}

// round builds a fresh index (timed as set-up), warms it up off the
// clock, measures one window, checks a sample of keys, and closes the
// mount, auditing its page economy. A traced round records spans.
func (r *runner) round(s *spec, round int, traced bool) (*roundOut, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	start := time.Now()
	m, err := s.mount(r.fx, rec)
	if err != nil {
		return nil, err
	}
	setup := time.Since(start)
	out, err := r.measure(s, m, round, rec)
	if cerr := m.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out.values["setup_s"] = setup.Seconds()
	out.checks++ // the page-economy audit in close
	return out, nil
}

func (r *runner) measure(s *spec, m *mount, round int, rec *recorder) (*roundOut, error) {
	streams, err := s.streams(r.fx, r.seed, round)
	if err != nil {
		return nil, err
	}
	deleted := map[uint64]bool{}
	warmup := s.warmup
	if r.warmup > 0 {
		warmup = r.warmup
	}
	warm, err := drive(m.target, r.fx, streams, time.Now().Add(warmup), nil)
	if err != nil {
		return nil, err
	}
	markDeleted(deleted, warm)

	before := m.snapshot()
	rec.start()
	t0 := time.Now()
	logs, err := drive(m.target, r.fx, streams, t0.Add(r.window), rec)
	elapsed := time.Since(t0)
	calls := rec.stop()
	if err != nil {
		return nil, err
	}
	after := m.snapshot()
	markDeleted(deleted, logs)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := m.ix.Stats()

	if err := checkSample(m.target, r.fx, deleted, r.seed, round); err != nil {
		return nil, err
	}

	out := &roundOut{values: map[string]float64{}, checks: 1, lat: &latencies{elapsed: elapsed}}
	lat := out.lat
	var probe index.ProbeStats
	for _, l := range logs {
		lat.merge(&l.lat)
		out.attempted += l.attempted
		out.failed += l.failed
		if out.failure == nil {
			out.failure = l.failure
		}
		out.checks += int(l.lat.all.n)
		addProbe(&probe, l.probe)
	}
	v := out.values
	ops := float64(lat.all.n)
	sec := elapsed.Seconds()
	perOp := func(x float64) float64 { return ratio(x, ops) }

	lat.metrics(v)
	v["index_bytes_per_key"] = ratio(float64(st.SizeBytes), float64(st.Keys))
	v["heap_mb"] = float64(ms.HeapInuse) / (1 << 20)

	v["core.index_reads_per_op"] = perOp(float64(probe.IndexReads))
	v["core.bf_probes_per_op"] = perOp(float64(probe.BFProbes))
	v["core.data_pages_per_op"] = perOp(float64(probe.DataPagesRead))
	v["core.false_reads_per_op"] = perOp(float64(probe.FalseReads))
	v["device.index_reads_per_op"] = perOp(float64(after.idx.Reads() - before.idx.Reads()))
	v["device.data_reads_per_op"] = perOp(float64(after.data.Reads() - before.data.Reads()))
	v["device.index_writes_per_op"] = perOp(float64(after.idx.Writes() - before.idx.Writes()))
	virt := after.idx.Elapsed - before.idx.Elapsed + after.data.Elapsed - before.data.Elapsed
	v["device.virt_us_per_op"] = perOp(float64(virt) / float64(time.Microsecond))
	v["pagestore.index_hit_ratio"] = hitRatio(after.idxHits-before.idxHits, after.idxMisses-before.idxMisses)
	v["pagestore.data_hit_ratio"] = hitRatio(after.dataHits-before.dataHits, after.dataMisses-before.dataMisses)
	v["maint.passes_per_s"] = float64(after.maint.Passes-before.maint.Passes) / sec
	v["maint.leaves_compacted_per_s"] = float64(after.maint.LeavesCompacted-before.maint.LeavesCompacted) / sec
	v["maint.stall_max_ms"] = millis(after.maint.CompactionMaxStall)
	v["maint.stall_total_ms_per_s"] = millis(after.maint.CompactionTotalStall-before.maint.CompactionTotalStall) / sec
	v["maint.fpp_end"] = st.EffectiveFPP
	v["runtime.alloc_bytes_per_op"] = perOp(float64(after.alloc - before.alloc))
	v["runtime.gc_per_s"] = float64(after.gcs-before.gcs) / sec

	if rec != nil {
		out.spans = make([][]opSpan, len(logs))
		for w, l := range logs {
			out.spans[w] = l.spans
		}
		traceMetrics(v, out.spans, calls, t0.Sub(rec.base).Nanoseconds())
	}
	return out, nil
}

func markDeleted(deleted map[uint64]bool, logs []*workerLog) {
	for _, l := range logs {
		for _, k := range l.deleted {
			deleted[k] = true
		}
	}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (nothing happened to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func hitRatio(hits, misses uint64) float64 { return ratio(float64(hits), float64(hits+misses)) }
