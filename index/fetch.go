package index

import (
	"sort"

	"bftree/internal/bptree"
	"bftree/internal/device"
	"bftree/internal/fdtree"
	"bftree/internal/heapfile"
)

// The exact backends (B+-Tree, FD-Tree, hash) answer probes with tuple
// references; everything here turns those references into streamed
// tuples with the same page-read accounting the BF-Tree's own probe
// path uses. One primitive does all the reading — fetcher.visit — and
// two iterators cover every access pattern: refIter resolves a stream
// of references (PK and hash layouts, each distinct page read once),
// orderedIter scans consecutive pages from a first occurrence
// (deduplicated layouts, Section 6.3 of the paper). The materialized
// Search/RangeScan paths and the streaming Scan/MultiSearch paths all
// drain these same iterators.

// fetcher reads data pages on behalf of the iterators. With a cache
// (newBatchFetcher) each page is decoded and charged once per batch —
// later visits are free, the page-share of MultiSearch.
type fetcher struct {
	file     *heapfile.File
	fieldIdx int
	cache    map[PageID][][]byte
}

func newFetcher(file *heapfile.File, fieldIdx int) *fetcher {
	return &fetcher{file: file, fieldIdx: fieldIdx}
}

func newBatchFetcher(file *heapfile.File, fieldIdx int) *fetcher {
	return &fetcher{file: file, fieldIdx: fieldIdx, cache: make(map[PageID][][]byte)}
}

// visit reads one data page (through the batch cache when present) and
// returns copies of the tuples whose indexed field satisfies match,
// plus whether any tuple lay beyond the probe (the ordered-scan stop
// signal; nil beyond never stops). Physical reads charge one
// DataPagesRead, and a FalseRead when nothing matched — cache hits
// charge nothing, they cost no I/O.
func (f *fetcher) visit(pid PageID, match, beyond func(uint64) bool,
	stats *ProbeStats) (matched [][]byte, past bool, err error) {
	tuples, ok := f.cache[pid]
	if !ok {
		tuples, err = f.file.ReadPageTuples(pid)
		if err != nil {
			return nil, false, err
		}
		stats.DataPagesRead++
		if f.cache != nil {
			f.cache[pid] = tuples
		}
	}
	for _, tup := range tuples {
		v := f.file.Schema().Get(tup, f.fieldIdx)
		if match(v) {
			cp := make([]byte, len(tup))
			copy(cp, tup)
			matched = append(matched, cp)
			continue
		}
		if beyond != nil && beyond(v) {
			past = true
		}
	}
	if !ok && len(matched) == 0 {
		stats.FalseReads++
	}
	return matched, past, nil
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
	f             *fetcher
	pid, last     PageID
	match, beyond func(uint64) bool
	buf           [][]byte
	i             int
	stats         ProbeStats
	err           error
	done          bool // no pages beyond the buffer
}

func newOrderedIter(f *fetcher, start PageID, match, beyond func(uint64) bool, idx ProbeStats) *orderedIter {
	return &orderedIter{f: f, pid: start, last: f.lastPage(), match: match, beyond: beyond, i: -1, stats: idx}
}

func (it *orderedIter) Next() bool {
	if it.err != nil {
		return false
	}
	if it.i+1 < len(it.buf) {
		it.i++
		return true
	}
	for {
		if it.done || it.pid > it.last {
			it.done = true
			return false
		}
		matched, past, err := it.f.visit(it.pid, it.match, it.beyond, &it.stats)
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
		if past {
			it.done = true
		}
		it.buf, it.i = matched, 0
		return true
	}
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

// refSource feeds an iterator tuple references plus the index-side cost
// of producing them so far. Sources over backend cursors pull lazily —
// an abandoned iterator never pays for index pages it didn't reach.
type refSource interface {
	next() (Ref, bool)
	reads() int // index pages read so far
	err() error
	close()
}

// sliceRefs serves a pre-materialized reference list (hash buckets,
// point-probe answers) whose index cost is already known.
type sliceRefs struct {
	refs     []Ref
	i        int
	idxReads int
}

func (s *sliceRefs) next() (Ref, bool) {
	if s.i >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.i]
	s.i++
	return r, true
}
func (s *sliceRefs) reads() int { return s.idxReads }
func (s *sliceRefs) err() error { return nil }
func (s *sliceRefs) close()     {}

// bpRefs adapts a B+-Tree range cursor.
type bpRefs struct{ c *bptree.Cursor }

func (s *bpRefs) next() (Ref, bool) {
	if !s.c.Next() {
		return Ref{}, false
	}
	return s.c.Entry().Ref, true
}
func (s *bpRefs) reads() int { return s.c.Reads() }
func (s *bpRefs) err() error { return s.c.Err() }
func (s *bpRefs) close()     { s.c.Close() }

// fdRefs adapts an FD-Tree range cursor.
type fdRefs struct{ c *fdtree.Cursor }

func (s *fdRefs) next() (Ref, bool) {
	if !s.c.Next() {
		return Ref{}, false
	}
	return s.c.Ref(), true
}
func (s *fdRefs) reads() int { return s.c.Stats().PagesRead }
func (s *fdRefs) err() error { return s.c.Err() }
func (s *fdRefs) close()     { s.c.Close() }

// refIter streams the tuples behind a reference stream: each distinct
// referenced page is read once (first appearance order) and all of its
// matching tuples are yielded, so later references to the same page
// cost nothing — the sorted access list the paper hands to the device,
// pull-based.
type refIter struct {
	f     *fetcher
	src   refSource
	match func(uint64) bool
	seen  map[PageID]bool
	buf   [][]byte
	i     int
	data  ProbeStats
	err   error
	done  bool
}

func newRefIter(f *fetcher, src refSource, match func(uint64) bool) *refIter {
	return &refIter{f: f, src: src, match: match, seen: make(map[PageID]bool), i: -1}
}

func (it *refIter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	if it.i+1 < len(it.buf) {
		it.i++
		return true
	}
	for {
		r, ok := it.src.next()
		if !ok {
			it.err = it.src.err()
			it.done = true
			return false
		}
		if it.seen[r.Page] {
			continue
		}
		it.seen[r.Page] = true
		matched, _, err := it.f.visit(r.Page, it.match, nil, &it.data)
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
	s.IndexReads += it.src.reads()
	return s
}

func (it *refIter) Err() error { return it.err }
func (it *refIter) Close() error {
	it.done = true
	it.src.close()
	it.buf, it.i = nil, -1
	return nil
}

// eqKey matches one key; inRange matches [lo, hi]; beyondKey and
// beyondHi are the ordered-scan stop predicates.
func eqKey(key uint64) func(uint64) bool     { return func(v uint64) bool { return v == key } }
func beyondKey(key uint64) func(uint64) bool { return func(v uint64) bool { return v > key } }
func inRange(lo, hi uint64) func(uint64) bool {
	return func(v uint64) bool { return v >= lo && v <= hi }
}
func beyondHi(hi uint64) func(uint64) bool { return func(v uint64) bool { return v > hi } }

// fetchPointOrdered resolves a deduplicated point probe: duplicates of
// key are contiguous from the first occurrence.
func fetchPointOrdered(file *heapfile.File, fieldIdx int, key uint64, start PageID, firstOnly bool, res *Result) error {
	it := newOrderedIter(newFetcher(file, fieldIdx), start, eqKey(key), beyondKey(key), ProbeStats{})
	return drainInto(it, firstOnly, res)
}

// fetchPointRefs resolves a per-tuple reference list for key; firstOnly
// stops at the first match.
func fetchPointRefs(file *heapfile.File, fieldIdx int, key uint64, refs []Ref, firstOnly bool, res *Result) error {
	it := newRefIter(newFetcher(file, fieldIdx), &sliceRefs{refs: refs}, eqKey(key))
	return drainInto(it, firstOnly, res)
}

// sortedByPage returns the references ordered by page id — the
// ascending access list of a non-dedup batched probe.
func sortedByPage(refs []Ref) []Ref {
	out := append([]Ref(nil), refs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// multiSearchGroups resolves the grouped answers of an exact backend's
// batched probe. idx seeds the index-side cost. In dedup mode each
// key's first occurrence starts an ordered scan; otherwise all refs
// flatten into one ascending page list matched against the whole batch.
// Either way a shared batch fetcher reads each data page at most once.
func multiSearchGroups(file *heapfile.File, fieldIdx int, groups []bptree.KeyRefs,
	dedup bool, idx ProbeStats) (*Result, error) {
	res := &Result{Stats: idx}
	f := newBatchFetcher(file, fieldIdx)
	if dedup {
		for _, g := range groups {
			it := newOrderedIter(f, g.Refs[0].Page, eqKey(g.Key), beyondKey(g.Key), ProbeStats{})
			if err := drainInto(it, false, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	var refs []Ref
	batch := make(map[uint64]bool, len(groups))
	for _, g := range groups {
		batch[g.Key] = true
		refs = append(refs, g.Refs...)
	}
	it := newRefIter(f, &sliceRefs{refs: sortedByPage(refs)},
		func(v uint64) bool { return batch[v] })
	if err := drainInto(it, false, res); err != nil {
		return nil, err
	}
	return res, nil
}
