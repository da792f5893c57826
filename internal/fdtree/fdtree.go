// Package fdtree implements the FD-Tree of Li et al. (PVLDB 2010), the
// flash-aware comparator of the paper's analysis (Section 5) and
// smart-home experiment (Section 6.5). An FD-Tree keeps a small head
// tree in memory and a logarithmic series of sorted runs on the device;
// each run embeds fence entries pointing into the next run (fractional
// cascading), so a point search reads exactly one page per on-device
// level. Inserts go to the head tree and cascade down through merges.
package fdtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"bftree/internal/bptree"
	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// ErrInvalid reports invalid configuration or corrupt state.
var ErrInvalid = errors.New("fdtree: invalid")

// entryKind distinguishes data records from fence pointers within a run.
type entryKind byte

const (
	kindRecord entryKind = 0
	kindFence  entryKind = 1
)

// entry is one slot of a sorted run: a record (key → tuple ref) or a
// fence (key → page id in the next level).
type entry struct {
	key  uint64
	kind entryKind
	ref  bptree.TupleRef // records
	next device.PageID   // fences
}

// Serialized entry: key(8) kind(1) page(8) slot(2) = 19 bytes; a page
// holds (pageSize-3)/19 entries after the 3-byte header (kind, count).
const (
	entrySize      = 19
	runHeaderSize  = 3
	runPageKind    = byte(7)
	defaultHeadCap = 4096
	defaultRatio   = 8
)

func entriesPerPage(pageSize int) int {
	return (pageSize - runHeaderSize) / entrySize
}

// level is one on-device sorted run.
type level struct {
	first device.PageID
	pages int
	count int // total entries including fences
}

// Tree is an FD-Tree over a page store.
type Tree struct {
	store   *pagestore.Store
	head    []entry // level 0, memory-resident, sorted
	headCap int
	ratio   int
	levels  []level // on-device runs, L1..Lk
	records uint64  // data records across all levels
}

// Options configure an FD-Tree.
type Options struct {
	// HeadCapacity is the entry capacity of the in-memory head tree
	// (default 4096).
	HeadCapacity int
	// Ratio is the size ratio between adjacent levels (the k of the
	// logarithmic method, default 8). The FD-Tree paper tunes it per
	// workload; the BF-Tree paper lets it pick the optimal value.
	Ratio int
}

// New creates an empty FD-Tree on store.
func New(store *pagestore.Store, o Options) (*Tree, error) {
	if o.HeadCapacity == 0 {
		o.HeadCapacity = defaultHeadCap
	}
	if o.Ratio == 0 {
		o.Ratio = defaultRatio
	}
	if o.HeadCapacity < 4 || o.Ratio < 2 {
		return nil, fmt.Errorf("%w: head capacity %d, ratio %d", ErrInvalid, o.HeadCapacity, o.Ratio)
	}
	return &Tree{store: store, headCap: o.HeadCapacity, ratio: o.Ratio}, nil
}

// BulkLoad builds an FD-Tree from sorted entries: everything lands in
// the deepest level, with fences cascading up into the head.
func BulkLoad(store *pagestore.Store, entries []bptree.Entry, o Options) (*Tree, error) {
	t, err := New(store, o)
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%w: bulk load of zero entries", ErrInvalid)
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			return nil, fmt.Errorf("%w: entries not sorted at %d", ErrInvalid, i)
		}
	}
	recs := make([]entry, len(entries))
	for i, e := range entries {
		recs[i] = entry{key: e.Key, kind: kindRecord, ref: e.Ref}
	}
	// Find the shallowest depth whose capacity holds the records, then
	// write the run at that depth and cascade fences upward.
	depth := 1
	for t.levelCapacity(depth) < len(recs) {
		depth++
	}
	for len(t.levels) < depth {
		t.levels = append(t.levels, level{})
	}
	if err := t.writeRun(depth, recs); err != nil {
		return nil, err
	}
	// Levels above the deepest hold only fences; build them bottom-up:
	// level d gets one fence per page of level d+1.
	for d := depth - 1; d >= 1; d-- {
		if err := t.composeAndWrite(d, nil); err != nil {
			return nil, err
		}
	}
	t.head = t.fencesFor(t.levels[0])
	t.records = uint64(len(recs))
	return t, nil
}

// levelCapacity returns the entry capacity of on-device level d (1-based).
func (t *Tree) levelCapacity(d int) int {
	c := t.headCap
	for i := 0; i < d; i++ {
		c *= t.ratio
	}
	return c
}

// fencesFor builds the fence entries describing a level: one per page,
// keyed by the page's first key (first fence forced to key 0 so every
// search finds a fence).
func (t *Tree) fencesFor(lv level) []entry {
	fences := make([]entry, 0, lv.pages)
	for p := 0; p < lv.pages; p++ {
		pid := lv.first + device.PageID(p)
		page, err := t.readRunPage(pid)
		if err != nil || len(page) == 0 {
			continue
		}
		key := page[0].key
		if p == 0 {
			key = 0
		}
		fences = append(fences, entry{key: key, kind: kindFence, next: pid})
	}
	return fences
}

// writeRun replaces level d (1-based) with the given sorted entries,
// packing them into pages. A page that would otherwise start mid-stream
// gets a copy of the most recent fence prepended (the FD-Tree's internal
// fences), so every page is self-sufficient for routing. The replaced
// run's pages are returned to the store's free list, where they
// coalesce into contiguous runs that later rewrites recycle — without
// this the logarithmic merge cascade would grow the device by the full
// level size on every merge.
func (t *Tree) writeRun(d int, entries []entry) error {
	per := entriesPerPage(t.store.PageSize())
	var pagesData [][]entry
	var lastFence *entry
	cur := make([]entry, 0, per)
	for _, e := range entries {
		if len(cur) == 0 && e.kind != kindFence && lastFence != nil {
			// The carried copy adopts the page's first key so the run
			// stays sorted and the page's routing fence covers exactly
			// the keys that land here.
			cf := *lastFence
			cf.key = e.key
			cur = append(cur, cf)
		}
		cur = append(cur, e)
		if e.kind == kindFence {
			f := e
			lastFence = &f
		}
		if len(cur) == per {
			pagesData = append(pagesData, cur)
			cur = make([]entry, 0, per)
		}
	}
	if len(cur) > 0 || len(pagesData) == 0 {
		pagesData = append(pagesData, cur)
	}
	first := t.store.Allocate(len(pagesData))
	buf := make([]byte, t.store.PageSize())
	total := 0
	for p, pe := range pagesData {
		encodeRunPage(buf, pe)
		if err := t.store.WritePage(first+device.PageID(p), buf); err != nil {
			return err
		}
		total += len(pe)
	}
	for len(t.levels) < d {
		t.levels = append(t.levels, level{})
	}
	if old := t.levels[d-1]; old.pages > 0 {
		dead := make([]device.PageID, old.pages)
		for p := range dead {
			dead[p] = old.first + device.PageID(p)
		}
		t.store.Free(dead...)
	}
	t.levels[d-1] = level{first: first, pages: len(pagesData), count: total}
	return nil
}

func encodeRunPage(buf []byte, entries []entry) {
	buf[0] = runPageKind
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(entries)))
	off := runHeaderSize
	for _, e := range entries {
		binary.LittleEndian.PutUint64(buf[off:], e.key)
		buf[off+8] = byte(e.kind)
		if e.kind == kindFence {
			binary.LittleEndian.PutUint64(buf[off+9:], uint64(e.next))
			binary.LittleEndian.PutUint16(buf[off+17:], 0)
		} else {
			binary.LittleEndian.PutUint64(buf[off+9:], uint64(e.ref.Page))
			binary.LittleEndian.PutUint16(buf[off+17:], e.ref.Slot)
		}
		off += entrySize
	}
	for i := off; i < len(buf); i++ {
		buf[i] = 0
	}
}

func decodeRunPage(buf []byte) ([]entry, error) {
	if len(buf) < runHeaderSize || buf[0] != runPageKind {
		return nil, fmt.Errorf("%w: not a run page", ErrInvalid)
	}
	count := int(binary.LittleEndian.Uint16(buf[1:3]))
	if runHeaderSize+count*entrySize > len(buf) {
		return nil, fmt.Errorf("%w: run page overflow", ErrInvalid)
	}
	out := make([]entry, count)
	off := runHeaderSize
	for i := 0; i < count; i++ {
		e := entry{
			key:  binary.LittleEndian.Uint64(buf[off:]),
			kind: entryKind(buf[off+8]),
		}
		switch e.kind {
		case kindFence:
			e.next = device.PageID(binary.LittleEndian.Uint64(buf[off+9:]))
		case kindRecord:
			e.ref = bptree.TupleRef{
				Page: device.PageID(binary.LittleEndian.Uint64(buf[off+9:])),
				Slot: binary.LittleEndian.Uint16(buf[off+17:]),
			}
		default:
			// Searches skip an entry that is neither, so accepting one
			// would silently drop it from every answer.
			return nil, fmt.Errorf("%w: run page entry %d has kind %d", ErrInvalid, i, e.kind)
		}
		out[i] = e
		off += entrySize
	}
	return out, nil
}

func (t *Tree) readRunPage(pid device.PageID) ([]entry, error) {
	buf, err := t.store.ReadPage(pid)
	if err != nil {
		return nil, err
	}
	return decodeRunPage(buf)
}

// Insert adds an entry to the head tree, cascading merges when levels
// overflow.
func (t *Tree) Insert(key uint64, ref bptree.TupleRef) error {
	e := entry{key: key, kind: kindRecord, ref: ref}
	i := sort.Search(len(t.head), func(i int) bool { return t.head[i].key > key })
	t.head = append(t.head, entry{})
	copy(t.head[i+1:], t.head[i:])
	t.head[i] = e
	t.records++
	if len(t.head) <= t.headCap {
		return nil
	}
	return t.mergeDown()
}

// mergeDown flushes the head into L1, then cascades while levels
// overflow. Each merge rewrites the lower level from the records of both
// (fences are regenerated, not merged) and replaces the upper level with
// fences only.
func (t *Tree) mergeDown() error {
	// Records currently in the head.
	upper := recordsOf(t.head)
	d := 1
	for {
		if len(t.levels) < d {
			t.levels = append(t.levels, level{})
		}
		lowerEntries, err := t.levelRecords(d)
		if err != nil {
			return err
		}
		merged := mergeRecords(upper, lowerEntries)
		if len(merged) <= t.levelCapacity(d) {
			if err := t.composeAndWrite(d, merged); err != nil {
				return err
			}
			break
		}
		// Level d overflows too: push everything down; level d will be
		// rebuilt as fences afterwards.
		upper = merged
		d++
	}
	// Rebuild the levels above d as fences of the level below, bottom-up,
	// then the head.
	for lv := d - 1; lv >= 1; lv-- {
		if err := t.composeAndWrite(lv, nil); err != nil {
			return err
		}
	}
	t.head = t.fencesFor(t.levels[0])
	return nil
}

// composeAndWrite rewrites level d with the given records interleaved
// with fences pointing into level d+1 (when one exists). Every level
// rewrite goes through here so routing to deeper levels is never lost.
func (t *Tree) composeAndWrite(d int, records []entry) error {
	var fences []entry
	if d < len(t.levels) && t.levels[d].pages > 0 {
		fences = t.fencesFor(t.levels[d])
	}
	return t.writeRun(d, mergeRecords(records, fences))
}

// levelRecords reads all record entries of on-device level d (1-based).
func (t *Tree) levelRecords(d int) ([]entry, error) {
	if d > len(t.levels) || t.levels[d-1].pages == 0 {
		return nil, nil
	}
	lv := t.levels[d-1]
	var out []entry
	for p := 0; p < lv.pages; p++ {
		page, err := t.readRunPage(lv.first + device.PageID(p))
		if err != nil {
			return nil, err
		}
		out = append(out, recordsOf(page)...)
	}
	return out, nil
}

func recordsOf(entries []entry) []entry {
	var out []entry
	for _, e := range entries {
		if e.kind == kindRecord {
			out = append(out, e)
		}
	}
	return out
}

func mergeRecords(a, b []entry) []entry {
	out := make([]entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].key <= b[j].key {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// NumRecords returns the number of data records stored.
func (t *Tree) NumRecords() uint64 { return t.records }

// Levels returns the number of on-device levels.
func (t *Tree) Levels() int { return len(t.levels) }

// SizeBytes returns the on-device footprint (run pages × page size); the
// head tree is memory-resident by design.
func (t *Tree) SizeBytes() uint64 {
	var pages int
	for _, lv := range t.levels {
		pages += lv.pages
	}
	return uint64(pages) * uint64(t.store.PageSize())
}

// FlushHead forces the in-memory head tree's records onto the device by
// running the same merge cascade an overflow triggers. After it returns
// the head holds only fences, so the tree's record state is fully
// device-resident. A no-op when the head holds no records.
func (t *Tree) FlushHead() error {
	if len(recordsOf(t.head)) == 0 {
		return nil
	}
	return t.mergeDown()
}
