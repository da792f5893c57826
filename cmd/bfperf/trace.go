package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftree/index"
	"bftree/internal/workload"
)

// A traced round keeps two kinds of span in memory. The driver records
// one opSpan per operation around its loadgen or index call; the
// tracedIndex wrapper around the mounted backend records one callSpan per
// call made into the index. After the window each call is joined to the
// op that caused it, and the op's time splits into index time (its calls)
// and self time: HTTP, JSON and loadgen for the served workloads, the
// adapter call alone for point-zipf.

// opSpan is one driven operation. Times are nanoseconds since the
// recorder's base.
type opSpan struct {
	kind       workload.OpKind
	key        uint64 // the op's first key
	start, end int64
	index      int64 // index time joined in after the window
	calls      int32
}

type callKind uint8

const (
	callSearch callKind = iota
	callRange
	callMulti
	callScan
	callInsert
	callDelete
	callStats // Stats and MaintenanceStats: the admission gate's drift read
)

// callSpan is one call into the index. busy is the time spent inside the
// index: for a scan, the Scan call plus every Next and the Close, which
// excludes the server's encoding between them.
type callSpan struct {
	kind       callKind
	key        uint64
	start, end int64
	busy       int64
}

// recorder collects call spans while a window is open.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	calls []callSpan
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) start() {
	if r != nil {
		r.on.Store(true)
	}
}

// stop closes the window and returns the calls recorded in it.
func (r *recorder) stop() []callSpan {
	if r == nil {
		return nil
	}
	r.on.Store(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

func (r *recorder) add(c callSpan) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// call records a call that started at start and ends now.
func (r *recorder) call(kind callKind, key uint64, start int64) {
	end := r.now()
	r.add(callSpan{kind: kind, key: key, start: start, end: end, busy: end - start})
}

// tracedIndex is the span recorder mounted in place of the backend. It
// implements the capability interfaces the bftree and bfforest adapters
// share; newTracedIndex refuses a backend whose capability set differs,
// so the server discovers exactly the surface it would see unwrapped.
type tracedIndex struct {
	inner index.Index
	rec   *recorder
}

func newTracedIndex(inner index.Index, rec *recorder) (*tracedIndex, error) {
	t := &tracedIndex{inner: inner, rec: rec}
	if got, want := index.Capabilities(t), index.Capabilities(inner); got != want {
		return nil, fmt.Errorf("bfperf: span recorder exposes %+v, backend %q has %+v", got, inner.Stats().Backend, want)
	}
	return t, nil
}

func (t *tracedIndex) Search(key uint64) (*index.Result, error) {
	defer t.rec.call(callSearch, key, t.rec.now())
	return t.inner.Search(key)
}

func (t *tracedIndex) SearchFirst(key uint64) (*index.Result, error) {
	defer t.rec.call(callSearch, key, t.rec.now())
	return t.inner.SearchFirst(key)
}

func (t *tracedIndex) RangeScan(lo, hi uint64) (*index.Result, error) {
	defer t.rec.call(callRange, lo, t.rec.now())
	return t.inner.RangeScan(lo, hi)
}

func (t *tracedIndex) MultiSearch(keys []uint64) (*index.Result, error) {
	var first uint64
	if len(keys) > 0 {
		first = keys[0]
	}
	defer t.rec.call(callMulti, first, t.rec.now())
	return t.inner.(index.MultiSearcher).MultiSearch(keys)
}

func (t *tracedIndex) Scan(lo, hi uint64) (index.Iterator, error) {
	start := t.rec.now()
	it, err := t.inner.(index.Scanner).Scan(lo, hi)
	if err != nil {
		t.rec.call(callScan, lo, start)
		return nil, err
	}
	return &tracedIter{Iterator: it, rec: t.rec, key: lo, start: start, busy: t.rec.now() - start}, nil
}

func (t *tracedIndex) Insert(key uint64, ref index.Ref) error {
	defer t.rec.call(callInsert, key, t.rec.now())
	return t.inner.(index.Inserter).Insert(key, ref)
}

func (t *tracedIndex) Delete(key uint64, ref index.Ref) error {
	defer t.rec.call(callDelete, key, t.rec.now())
	return t.inner.(index.Deleter).Delete(key, ref)
}

func (t *tracedIndex) Stats() index.Stats {
	defer t.rec.call(callStats, 0, t.rec.now())
	return t.inner.Stats()
}

func (t *tracedIndex) MaintenanceStats() index.MaintenanceStats {
	defer t.rec.call(callStats, 0, t.rec.now())
	return t.inner.(index.Maintainer).MaintenanceStats()
}

// The remaining capabilities are never called during a window; they pass
// through so the capability set matches the backend's.

func (t *tracedIndex) Close() error        { return t.inner.Close() }
func (t *tracedIndex) MarshalMeta() []byte { return t.inner.(index.Persister).MarshalMeta() }
func (t *tracedIndex) Maintain() error     { return t.inner.(index.Maintainer).Maintain() }
func (t *tracedIndex) InternalPages() ([]index.PageID, error) {
	return t.inner.(index.Warmable).InternalPages()
}

// tracedIter records one call span per scan, from Scan to Close.
type tracedIter struct {
	index.Iterator
	rec         *recorder
	key         uint64
	start, busy int64
	closed      bool
}

func (it *tracedIter) Next() bool {
	t0 := it.rec.now()
	ok := it.Iterator.Next()
	it.busy += it.rec.now() - t0
	return ok
}

func (it *tracedIter) Close() error {
	t0 := it.rec.now()
	err := it.Iterator.Close()
	if !it.closed {
		it.closed = true
		end := it.rec.now()
		it.rec.add(callSpan{kind: callScan, key: it.key, start: it.start, end: end, busy: it.busy + end - t0})
	}
	return err
}

// joins reports whether call c can belong to op o: matching kind and
// first key (a Stats call belongs to whichever write it falls in).
func joins(o *opSpan, c *callSpan) bool {
	switch c.kind {
	case callStats:
		return o.kind == workload.OpInsert || o.kind == workload.OpDelete
	case callSearch:
		return o.kind == workload.OpSearch && o.key == c.key
	case callRange:
		return o.kind == workload.OpRangeScan && o.key == c.key
	case callMulti:
		return o.kind == workload.OpMultiSearch && o.key == c.key
	case callScan:
		return o.kind == workload.OpScanLimit && o.key == c.key
	case callInsert:
		return o.kind == workload.OpInsert && o.key == c.key
	case callDelete:
		return o.kind == workload.OpDelete && o.key == c.key
	}
	return false
}

// join attributes each call that started in the window to the op whose
// interval contains the call's start. Containment is tested on the start
// alone because a streamed scan can outlive its client: loadgen closes the
// body after its LIMIT while the server is still writing. Each worker's
// ops are sequential and sorted by start, so at most one op per worker
// can contain a given instant; among matching candidates the latest
// starting wins. An op's index time is the busy time of its calls, capped
// at the part of the op left after each call started. join returns the
// number of calls it could not attribute.
func join(spans [][]opSpan, calls []callSpan, windowStart int64) (considered, unjoined int) {
	for i := range calls {
		c := &calls[i]
		if c.start < windowStart {
			continue // a straggler from the warm-up
		}
		considered++
		var best *opSpan
		for _, ops := range spans {
			j := sort.Search(len(ops), func(j int) bool { return ops[j].start > c.start }) - 1
			if j < 0 || ops[j].end < c.start || !joins(&ops[j], c) {
				continue
			}
			if best == nil || ops[j].start > best.start {
				best = &ops[j]
			}
		}
		if best == nil {
			unjoined++
			continue
		}
		best.index += min(c.busy, best.end-c.start)
		best.calls++
	}
	return considered, unjoined
}

// traceMetrics joins a traced window's spans and adds the trace.* metrics
// to v.
func traceMetrics(v map[string]float64, spans [][]opSpan, calls []callSpan, windowStart int64) {
	considered, unjoined := join(spans, calls, windowStart)
	var self, idx histogram
	var selfSum, total int64
	for _, ops := range spans {
		for _, o := range ops {
			d := o.end - o.start
			self.record(time.Duration(d - o.index))
			idx.record(time.Duration(o.index))
			selfSum += d - o.index
			total += d
		}
	}
	v["trace.ops"] = float64(self.n)
	v["trace.http_self_us_p50"] = self.quantile(0.50)
	v["trace.http_self_us_p99"] = self.quantile(0.99)
	v["trace.index_us_p50"] = idx.quantile(0.50)
	v["trace.index_us_p99"] = idx.quantile(0.99)
	v["trace.http_self_share"] = ratio(float64(selfSum), float64(total))
	v["trace.unjoined_frac"] = ratio(float64(unjoined), float64(considered))
}
