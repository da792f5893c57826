package index

import (
	"math"
	"sort"

	"bftree/internal/bptree"
	"bftree/internal/device"
	"bftree/internal/heapfile"
)

// The exact backends (B+-Tree, FD-Tree, hash) answer probes with tuple
// references; everything here turns those references into streamed
// tuples with the same page-read accounting the BF-Tree's own probe
// path uses. Every data page is read by one in-place scan,
// heapfile.AppendMatches, selecting by key. Two iterators cover every
// access pattern: refIter resolves a stream of references (PK and hash
// layouts, each distinct page read once), orderedIter scans
// consecutive pages from a first occurrence (deduplicated layouts,
// Section 6.3 of the paper). The materialized Search/RangeScan paths
// and the streaming Scan/MultiSearch paths all drain these same
// iterators.

// fetcher reads data pages on behalf of the iterators. A batch fetcher
// (newBatchFetcher) keeps the tuples of each page an ordered scan has
// read, so a page that several keys of a MultiSearch batch share is
// read and charged once.
type fetcher struct {
	file     *heapfile.File
	fieldIdx int
	cache    map[PageID][][]byte // batch fetchers only
	buf      [][]byte            // the last uncached page's selection
	matched  [][]byte            // visitOrdered's last answer
}

func newFetcher(file *heapfile.File, fieldIdx int) *fetcher {
	return &fetcher{file: file, fieldIdx: fieldIdx}
}

func newBatchFetcher(file *heapfile.File, fieldIdx int) *fetcher {
	return &fetcher{file: file, fieldIdx: fieldIdx, cache: make(map[PageID][][]byte)}
}

// visit reads data page pid and returns the tuples keys selects,
// charging one DataPagesRead, and a FalseRead when nothing matched. The
// tuples are read-only views of the page image (see Result); the slice
// listing them is the fetcher's buffer, which the next visit reuses.
func (f *fetcher) visit(pid PageID, keys heapfile.Keys, stats *ProbeStats) ([][]byte, error) {
	var err error
	if f.buf, err = f.file.AppendMatches(f.buf[:0], pid, f.fieldIdx, keys); err != nil {
		return nil, err
	}
	charge(stats, len(f.buf))
	return f.buf, nil
}

// visitOrdered returns the tuples of data page pid whose key lies in
// [lo, hi], as read-only views of the page image, and whether the page
// holds a key above hi: the ordered scan's stop signal. The slice
// listing them is reused by the next visitOrdered. A physical read
// selects every key from lo up and is charged like visit's; a batch
// fetcher keeps that selection, and a later visit answers from it
// without a charge. The batch's keys come in ascending order, so a
// later visit's lo is never below the one the page was read for.
func (f *fetcher) visitOrdered(pid PageID, lo, hi uint64, stats *ProbeStats) (matched [][]byte, past bool, err error) {
	from, cached := f.cache[pid]
	if !cached {
		from, err = f.file.AppendMatches(f.buf[:0], pid, f.fieldIdx, heapfile.Keys{Lo: lo, Hi: math.MaxUint64})
		if err != nil {
			return nil, false, err
		}
		if f.cache != nil {
			f.cache[pid] = from
		} else {
			f.buf = from
		}
	}
	schema := f.file.Schema()
	matched = f.matched[:0]
	for _, tup := range from {
		switch k := schema.Get(tup, f.fieldIdx); {
		case k > hi:
			past = true
		case k >= lo:
			matched = append(matched, tup)
		}
	}
	if !cached {
		charge(stats, len(matched))
	}
	f.matched = matched
	return matched, past, nil
}

// charge accounts one physical data-page read that matched n tuples.
func charge(stats *ProbeStats, n int) {
	stats.DataPagesRead++
	if n == 0 {
		stats.FalseReads++
	}
}

// lastPage returns the final data page of the fetched file.
func (f *fetcher) lastPage() PageID {
	return f.file.FirstPage() + device.PageID(f.file.NumPages()) - 1
}

// drainInto consumes an iterator into res, accumulating its stats;
// firstOnly stops after the first tuple (the SearchFirst early exit).
func drainInto(it Iterator, firstOnly bool, res *Result) error {
	defer it.Close()
	for it.Next() {
		res.Tuples = append(res.Tuples, it.Tuple())
		if firstOnly {
			break
		}
	}
	res.Stats.Add(it.Stats())
	return it.Err()
}

// emptyIter is an exhausted Iterator that still reports the index-side
// cost of discovering there was nothing to fetch.
type emptyIter struct{ stats ProbeStats }

func (it *emptyIter) Next() bool        { return false }
func (it *emptyIter) Tuple() []byte     { return nil }
func (it *emptyIter) Stats() ProbeStats { return it.stats }
func (it *emptyIter) Err() error        { return nil }
func (it *emptyIter) Close() error      { return nil }

// orderedIter streams the ordered-scan resolution of a deduplicated
// index probe: consecutive data pages from the first occurrence are
// read while they keep matching — "every probe with a positive match
// will read all the consecutive tuples that have the same value"
// (Section 6.3) — stopping at a page that yields nothing or whose keys
// move beyond the probe. stats is seeded with the index-side charges of
// locating the first occurrence.
type orderedIter struct {
	f         *fetcher
	pid, last PageID
	lo, hi    uint64
	buf       [][]byte
	i         int
	stats     ProbeStats
	err       error
	done      bool // no pages beyond the buffer
}

func newOrderedIter(f *fetcher, start PageID, lo, hi uint64, idx ProbeStats) *orderedIter {
	return &orderedIter{f: f, pid: start, last: f.lastPage(), lo: lo, hi: hi, i: -1, stats: idx}
}

func (it *orderedIter) Next() bool {
	if it.err != nil {
		return false
	}
	if it.i+1 < len(it.buf) {
		it.i++
		return true
	}
	if it.done || it.pid > it.last {
		it.done = true
		return false
	}
	matched, past, err := it.f.visitOrdered(it.pid, it.lo, it.hi, &it.stats)
	it.pid++
	if err != nil {
		it.err = err
		it.done = true
		return false
	}
	if len(matched) == 0 {
		it.done = true
		return false
	}
	it.done = past
	it.buf, it.i = matched, 0
	return true
}

func (it *orderedIter) Tuple() []byte {
	if it.i < 0 || it.i >= len(it.buf) {
		return nil
	}
	return it.buf[it.i]
}

func (it *orderedIter) Stats() ProbeStats { return it.stats }
func (it *orderedIter) Err() error        { return it.err }
func (it *orderedIter) Close() error {
	it.done = true
	it.buf, it.i = nil, -1
	return nil
}

// refCursor is a stream of tuple references plus the index pages read
// to produce them so far: the method set of bptree.Cursor,
// fdtree.Cursor and sliceRefs. Tree cursors pull lazily — an abandoned
// iterator never pays for index pages it didn't reach.
type refCursor interface {
	Next() bool
	Ref() Ref
	Reads() int
	Err() error
	Close() error
}

// sliceRefs serves a pre-materialized reference list (hash buckets,
// point-probe answers, a batch's page-sorted references) whose index
// cost is already counted elsewhere.
type sliceRefs struct {
	refs []Ref
	i    int // 1 + the current reference
}

func (s *sliceRefs) Next() bool {
	if s.i >= len(s.refs) {
		return false
	}
	s.i++
	return true
}
func (s *sliceRefs) Ref() Ref     { return s.refs[s.i-1] }
func (s *sliceRefs) Reads() int   { return 0 }
func (s *sliceRefs) Err() error   { return nil }
func (s *sliceRefs) Close() error { return nil }

// refIter streams the tuples behind a reference stream: each distinct
// referenced page is read once (first appearance order) and all of its
// tuples that keys selects are yielded, so later references to the same
// page cost nothing — the sorted access list the paper hands to the
// device, pull-based.
type refIter struct {
	f    *fetcher
	src  refCursor
	keys heapfile.Keys
	seen map[PageID]bool
	buf  [][]byte
	i    int
	data ProbeStats
	err  error
	done bool
}

func newRefIter(f *fetcher, src refCursor, keys heapfile.Keys) *refIter {
	return &refIter{f: f, src: src, keys: keys, seen: make(map[PageID]bool), i: -1}
}

func (it *refIter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if it.i+1 < len(it.buf) {
		it.i++
		return true
	}
	for it.src.Next() {
		pid := it.src.Ref().Page
		if it.seen[pid] {
			continue
		}
		it.seen[pid] = true
		matched, err := it.f.visit(pid, it.keys, &it.data)
		if err != nil {
			it.err = err
			it.done = true
			return false
		}
		if len(matched) > 0 {
			it.buf, it.i = matched, 0
			return true
		}
	}
	it.err = it.src.Err()
	it.done = true
	return false
}

func (it *refIter) Tuple() []byte {
	if it.i < 0 || it.i >= len(it.buf) {
		return nil
	}
	return it.buf[it.i]
}

// Stats combines the source's index-side reads (live, so early
// termination is priced correctly) with the data-side charges.
func (it *refIter) Stats() ProbeStats {
	s := it.data
	s.IndexReads += it.src.Reads()
	return s
}

func (it *refIter) Err() error { return it.err }
func (it *refIter) Close() error {
	it.done = true
	it.src.Close()
	it.buf, it.i = nil, -1
	return nil
}

// fetchPoint resolves the references of a point probe for key: in the
// deduplicated layout the first reference starts an ordered scan
// (duplicates of key are contiguous from the first occurrence),
// otherwise every referenced page is read; firstOnly stops at the first
// match.
func fetchPoint(file *heapfile.File, fieldIdx int, key uint64, refs []Ref, dedup, firstOnly bool, res *Result) error {
	f := newFetcher(file, fieldIdx)
	var it Iterator
	if dedup {
		it = newOrderedIter(f, refs[0].Page, key, key, ProbeStats{})
	} else {
		it = newRefIter(f, &sliceRefs{refs: refs}, heapfile.Keys{Lo: key, Hi: key})
	}
	return drainInto(it, firstOnly, res)
}

// multiSearchGroups resolves the grouped answers of an exact backend's
// batched probe. idx seeds the index-side cost. In dedup mode each
// key's first occurrence starts an ordered scan; otherwise all refs
// flatten into one ascending page list matched against the whole batch.
// Either way each data page is read at most once for the batch.
func multiSearchGroups(file *heapfile.File, fieldIdx int, groups []bptree.KeyRefs,
	dedup bool, idx ProbeStats) (*Result, error) {
	res := &Result{Stats: idx}
	if dedup {
		f := newBatchFetcher(file, fieldIdx)
		for _, g := range groups {
			it := newOrderedIter(f, g.Refs[0].Page, g.Key, g.Key, ProbeStats{})
			if err := drainInto(it, false, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	if len(groups) == 0 {
		return res, nil
	}
	var refs []Ref
	batch := make([]uint64, len(groups)) // ascending, as groups come
	for i, g := range groups {
		batch[i] = g.Key
		refs = append(refs, g.Refs...)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Page < refs[j].Page })
	keys := heapfile.Keys{Lo: batch[0], Hi: batch[len(batch)-1], In: batch}
	if err := drainInto(newRefIter(newFetcher(file, fieldIdx), &sliceRefs{refs: refs}, keys), false, res); err != nil {
		return nil, err
	}
	return res, nil
}
