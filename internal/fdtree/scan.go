package fdtree

import (
	"fmt"
	"slices"
	"sort"

	"bftree/internal/bptree"
	"bftree/internal/device"
)

// Cursor streams the records of a range scan in key order: a k-way
// merge over the head tree and one lazy cursor per on-device run.
// Opening the cursor pays each run's binary-search positioning; after
// that, run pages are fetched only as the merge consumes them, so a
// LIMIT-k consumer reads the front of each run instead of every
// in-range page of every level. Ties across levels yield shallower
// levels first — head, then L1, L2, … — the left-biased order of
// mergeRecords.
//
// The tree must not be mutated while a cursor is open (same contract as
// every other FD-Tree read). Close only drops buffers and is optional.
type Cursor struct {
	lo, hi uint64
	srcs   []*levelCursor // index 0 is the head, then L1..Lk
	cur    bptree.TupleRef
	valid  bool
	reads  int // run pages read so far
	err    error
	done   bool
}

// Scan opens a streaming cursor over every record with key in [lo, hi].
func (t *Tree) Scan(lo, hi uint64) (*Cursor, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: range [%d,%d] inverted", ErrInvalid, lo, hi)
	}
	c := &Cursor{lo: lo, hi: hi}
	head := &levelCursor{c: c, mem: t.head}
	head.memPos = sort.Search(len(t.head), func(i int) bool { return t.head[i].key >= lo }) - 1
	c.srcs = append(c.srcs, head)
	for _, lv := range t.levels {
		if lv.pages == 0 {
			continue
		}
		lc := &levelCursor{c: c, t: t, lv: lv}
		if err := lc.position(); err != nil {
			return nil, err
		}
		c.srcs = append(c.srcs, lc)
	}
	for _, s := range c.srcs {
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Next advances to the next in-range record, reporting whether one
// exists.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		c.valid = false
		return false
	}
	// Pick the source with the smallest current key; ties go to the
	// shallowest level (lowest index), reproducing mergeRecords order.
	best := -1
	for i, s := range c.srcs {
		if !s.valid {
			continue
		}
		if best == -1 || s.key < c.srcs[best].key {
			best = i
		}
	}
	if best == -1 {
		c.done = true
		c.valid = false
		return false
	}
	s := c.srcs[best]
	c.cur, c.valid = s.ref, true
	if err := s.advance(); err != nil {
		c.err = err
		c.valid = false
		return false
	}
	return true
}

// Ref returns the current record's tuple reference.
func (c *Cursor) Ref() bptree.TupleRef {
	if !c.valid {
		return bptree.TupleRef{}
	}
	return c.cur
}

// Reads returns the run pages read so far.
func (c *Cursor) Reads() int { return c.reads }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's buffers. Idempotent; never fails.
func (c *Cursor) Close() error {
	c.done = true
	c.valid = false
	c.srcs = nil
	return nil
}

// levelCursor walks one source — the in-memory head (mem != nil) or one
// on-device run — yielding its in-range records in order.
type levelCursor struct {
	c *Cursor

	// Head source.
	mem    []entry
	memPos int

	// Run source.
	t    *Tree
	lv   level
	p    int // page index within the run, -1 before the first load
	page []entry
	i    int // entry index within page, -1 before first

	key   uint64
	ref   bptree.TupleRef
	valid bool
	done  bool
}

// position binary-searches the run's pages for the first that may hold
// lo — charging each predicate read — and backs up one page, since
// the page before the boundary may hold in-range records at its tail.
func (s *levelCursor) position() error {
	var searchErr error
	start := sort.Search(s.lv.pages, func(p int) bool {
		page, err := s.t.readRunPage(s.lv.first + device.PageID(p))
		if err != nil {
			searchErr = err
			return true
		}
		s.c.reads++
		return len(page) > 0 && page[0].key >= s.c.lo
	})
	if searchErr != nil {
		return searchErr
	}
	if start > 0 {
		start--
	}
	s.p = start - 1 // advance loads start first
	s.i = -1
	return nil
}

// advance moves to the source's next in-range record, loading run pages
// lazily. The source exhausts at the first key past hi (the page
// holding it has already been read and charged) or at the end of the
// run.
func (s *levelCursor) advance() error {
	s.valid = false
	if s.done {
		return nil
	}
	if s.t == nil { // head source

		for {
			s.memPos++
			if s.memPos >= len(s.mem) || s.mem[s.memPos].key > s.c.hi {
				s.done = true
				return nil
			}
			e := s.mem[s.memPos]
			if e.kind != kindRecord || e.key < s.c.lo {
				continue
			}
			s.key, s.ref, s.valid = e.key, e.ref, true
			return nil
		}
	}
	for {
		s.i++
		if s.i >= len(s.page) {
			s.p++
			if s.p >= s.lv.pages {
				s.done = true
				return nil
			}
			page, err := s.t.readRunPage(s.lv.first + device.PageID(s.p))
			if err != nil {
				return err
			}
			s.c.reads++
			s.page, s.i = page, 0
			if len(page) == 0 {
				continue
			}
		}
		e := s.page[s.i]
		if e.key > s.c.hi {
			s.done = true
			return nil
		}
		if e.kind != kindRecord || e.key < s.c.lo {
			continue
		}
		s.key, s.ref, s.valid = e.key, e.ref, true
		return nil
	}
}

// MultiSearch answers a batch of point lookups in one pass — a point
// lookup is a batch of one: keys are sorted and deduped, then each runs
// the fractional-cascade search through a per-batch cache of decoded
// run pages, so adjacent keys routed to the same pages share their
// reads. Groups come back in ascending key order, keys without matches
// omitted; reads counts distinct run pages read for the whole batch.
func (t *Tree) MultiSearch(keys []uint64) ([]bptree.KeyRefs, int, error) {
	batch := slices.Clone(keys)
	slices.Sort(batch)
	cache := make(map[device.PageID][]entry)
	reads := 0
	read := func(pid device.PageID) ([]entry, error) {
		if page, ok := cache[pid]; ok {
			return page, nil
		}
		page, err := t.readRunPage(pid)
		if err != nil {
			return nil, err
		}
		reads++
		cache[pid] = page
		return page, nil
	}
	var out []bptree.KeyRefs
	for _, key := range slices.Compact(batch) {
		refs, err := t.search(key, read)
		if err != nil {
			return nil, reads, err
		}
		if len(refs) > 0 {
			out = append(out, bptree.KeyRefs{Key: key, Refs: refs})
		}
	}
	return out, reads, nil
}

// search returns the tuple references for key, reading run pages
// through read. It scans the head tree, then follows one fence per
// level, reading one run page per level — the logarithmic search
// pattern the paper models. Duplicates of key may straddle page
// boundaries within a run. The entry page is the rightmost page whose
// first key is at or below key (fences are one per page, keyed by first
// key, and routing picks the last fence at or below key), so any
// remaining records of key sit at the tails of the preceding pages: the
// search walks left while the page still *starts* at key, at one more
// read each. The left pages never carry routing information the entry
// page lacks — a fence at or below key on them precedes every fence the
// entry page holds — so only records are collected there.
func (t *Tree) search(key uint64, read func(device.PageID) ([]entry, error)) ([]bptree.TupleRef, error) {
	var out []bptree.TupleRef
	nextPage := device.InvalidPage
	// collect gathers the records matching key.
	collect := func(entries []entry) {
		i := sort.Search(len(entries), func(i int) bool { return entries[i].key > key })
		for j := i - 1; j >= 0 && entries[j].key == key; j-- {
			if entries[j].kind == kindRecord {
				out = append(out, entries[j].ref)
			}
		}
	}
	scan := func(entries []entry) {
		i := sort.Search(len(entries), func(i int) bool { return entries[i].key > key })
		// The last fence at or below key routes the next level; records
		// in between are skipped. Every run page starts with a carried
		// fence (see writeRun), so the fence is always on this page.
		for j := i - 1; j >= 0; j-- {
			if entries[j].kind == kindFence {
				nextPage = entries[j].next
				break
			}
		}
		collect(entries)
	}
	scan(t.head)
	for lv := 0; lv < len(t.levels); lv++ {
		if nextPage == device.InvalidPage {
			// No fence found (empty level); fall back to the level's
			// first page.
			if t.levels[lv].pages == 0 {
				continue
			}
			nextPage = t.levels[lv].first
		}
		pid := nextPage
		page, err := read(pid)
		if err != nil {
			return nil, err
		}
		nextPage = device.InvalidPage
		scan(page)
		for len(page) > 0 && page[0].key == key && pid > t.levels[lv].first {
			pid--
			if page, err = read(pid); err != nil {
				return nil, err
			}
			collect(page)
		}
	}
	return out, nil
}
