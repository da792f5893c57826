package core

import (
	"fmt"

	"bftree/internal/device"
	"bftree/internal/heapfile"
)

// Cursor is a pull-based streaming range scan over the BF-Tree: the
// leaf-chain walk of Section 7 exposed one tuple at a time instead of
// as a materialized slice. A cursor buffers at most one data page of
// in-range tuples, so a LIMIT-k consumer pays only for the pages it
// actually pulled — the early-termination shape RangeScan cannot offer.
//
// The cursor holds the tree's reader registration (the epoch scheme of
// meta.go) from Scan until Close, Next returning false, or the first
// error — whichever comes first. While it is held, concurrent latched
// and structural writers proceed normally, but retired pages of
// snapshots the cursor may still traverse cannot be reclaimed; a
// long-lived open cursor therefore bounds limbo drain, not writer
// progress (DESIGN.md §6). Close is idempotent and must be called even
// after Next returned false (it is then a no-op on the registration,
// which an exhausted cursor has already released).
//
// A Cursor is not safe for concurrent use; open one per goroutine.
type Cursor struct {
	t        *Tree
	lo, hi   uint64
	optimize bool

	ep   uint64 // epoch the registration was taken under
	open bool   // registration still held

	leaf     *bfLeaf         // leaf whose pages are being produced (nil: chain exhausted)
	consumed bool            // leaf's page list already installed once
	enum     *boundaryEnum   // lazy per-key probe of a boundary leaf (optimized mode)
	pages    []device.PageID // data pages of the current leaf still to read
	tuples   [][]byte        // in-range tuples of the current page; the buffer is reused across pages
	ti       int             // index of the current tuple, -1 before first
	stats    ProbeStats
	err      error
	done     bool
}

// boundaryEnum walks a boundary leaf's overlap keys one at a time: each
// step probes one key's Bloom filters and yields only its flagged,
// not-yet-read pages. Probing lazily is what makes LIMIT-k cheap here —
// an upfront enumeration of the whole overlap flags nearly every page
// once overlapKeys × fpp approaches 1, so the early-terminating
// consumer would pay for the whole boundary anyway.
type boundaryEnum struct {
	leaf      *bfLeaf
	next, end uint64 // keys still to probe (inclusive)
	exhausted bool
	endPid    device.PageID // page clamp (lastDataPage)
	seen      map[device.PageID]bool
	bids      []int           // the last key's matching filters
	pages     []device.PageID // backs c.pages, which is empty when a step refills it
}

// Scan opens a streaming cursor over every tuple whose indexed field
// lies in [lo, hi], in page order — the iterator form of RangeScan,
// which drains exactly this cursor.
func (t *Tree) Scan(lo, hi uint64) (*Cursor, error) {
	return t.scan(lo, hi, false)
}

// ScanOptimized is Scan with the Section 7 boundary optimization: for
// boundary partitions it probes the Bloom filters for one overlap key
// at a time — lazily, as the consumer pulls — and reads only the
// flagged pages. Emission order therefore differs from Scan at the
// boundaries (key-probe order instead of page order); the tuple
// multiset is identical. The laziness is what makes early termination
// cheap: a LIMIT-k consumer pays for the pages behind its k tuples,
// not for the whole boundary's candidate set.
func (t *Tree) ScanOptimized(lo, hi uint64) (*Cursor, error) {
	return t.scan(lo, hi, true)
}

func (t *Tree) scan(lo, hi uint64, optimize bool) (*Cursor, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: range [%d,%d] inverted", ErrOptions, lo, hi)
	}
	c := &Cursor{t: t, lo: lo, hi: hi, optimize: optimize, ti: -1}
	m, ep := t.beginProbe()
	c.ep, c.open = ep, true
	_, buf, _, err := indexReader{t: t, stats: &c.stats}.descend(m.root, lo, false, nil)
	if err == nil {
		c.leaf, err = decodeBFLeaf(buf)
	}
	if err != nil {
		c.release()
		return nil, err
	}
	return c, nil
}

// Next advances the cursor to the next in-range tuple, reporting
// whether one exists. It returns false at the end of the range or on
// error (see Err); once false, the cursor's reader registration has
// been released and every later call returns false.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if c.ti+1 < len(c.tuples) {
		c.ti++
		return true
	}
	for {
		if c.done {
			c.release()
			return false
		}
		if len(c.pages) == 0 {
			if c.enum != nil {
				c.stepEnum()
				if len(c.pages) > 0 {
					continue
				}
				c.enum = nil // overlap keys exhausted; move on
			}
			if err := c.advanceLeaf(); err != nil {
				c.fail(err)
				return false
			}
			continue
		}
		pid := c.pages[0]
		c.pages = c.pages[1:]
		if err := c.collect(pid); err != nil {
			c.fail(err)
			return false
		}
		if len(c.tuples) > 0 {
			c.ti = 0
			return true
		}
	}
}

// Tuple returns the current tuple, a read-only view of its data page's
// shared image (see Result). The view stays valid after further Next
// calls and after Close; a caller that wants to change it copies it
// first.
func (c *Cursor) Tuple() []byte {
	if c.ti < 0 || c.ti >= len(c.tuples) {
		return nil
	}
	return c.tuples[c.ti]
}

// Stats returns the cost accounting accumulated so far — after each
// Next it reflects exactly the index and data pages paid to reach the
// current tuple, which is how the bench layer prices early termination.
func (c *Cursor) Stats() ProbeStats { return c.stats }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's reader registration and drops its
// buffers. It is idempotent, safe after exhaustion, and never returns
// an error (iteration errors are reported by Err).
func (c *Cursor) Close() error {
	c.release()
	c.done = true
	c.tuples, c.pages, c.enum, c.ti = nil, nil, nil, -1
	return nil
}

// release drops the reader registration exactly once.
func (c *Cursor) release() {
	if c.open {
		c.open = false
		c.t.endProbe(c.ep)
	}
}

func (c *Cursor) fail(err error) {
	c.err = err
	c.release()
}

// advanceLeaf installs the next leaf's data-page list, or marks the
// scan done. It mirrors the leaf-chain loop of the materialized scan:
// leaves are read lazily, so an early-terminated cursor never touches
// chain links beyond the last page it produced.
func (c *Cursor) advanceLeaf() error {
	for {
		if c.leaf == nil {
			c.done = true
			return nil
		}
		if c.consumed {
			if c.leaf.next == device.InvalidPage {
				c.leaf = nil
				c.done = true
				return nil
			}
			nl, err := indexReader{t: c.t, stats: &c.stats}.leaf(c.leaf.next)
			if err != nil {
				return err
			}
			c.leaf = nl
			c.consumed = false
		}
		leaf := c.leaf
		c.consumed = true
		if leaf.minKey > c.hi {
			c.done = true
			return nil
		}
		if leaf.maxKey < c.lo || leaf.numKeys == 0 {
			continue
		}
		installed, err := c.installLeaf(leaf)
		if err != nil {
			return err
		}
		if installed {
			return nil
		}
	}
}

// installLeaf queues one overlapping leaf's data pages and reports
// whether anything was installed: the whole partition (middle
// partitions are entirely useful, Section 7), or — under the boundary
// optimization, for a boundary partition with an enumerable overlap — a
// lazy per-key Bloom probe that flags pages only as the consumer pulls.
func (c *Cursor) installLeaf(leaf *bfLeaf) (bool, error) {
	last := c.t.lastDataPage()
	end := leaf.maxPid
	if end > last {
		end = last
	}
	if end < leaf.minPid {
		return false, nil
	}
	boundary := leaf.minKey < c.lo || leaf.maxKey > c.hi
	if boundary && c.optimize && overlapSpan(leaf, c.lo, c.hi) <= rangeEnumLimit {
		a, b := leaf.minKey, leaf.maxKey
		if c.lo > a {
			a = c.lo
		}
		if c.hi < b {
			b = c.hi
		}
		c.enum = &boundaryEnum{
			leaf:   leaf,
			next:   a,
			end:    b,
			endPid: end,
			seen:   make(map[device.PageID]bool),
		}
		c.stepEnum()
		if len(c.pages) == 0 {
			// Every overlap key's filters answered no (or flagged only
			// already-clamped pages): the boundary contributes nothing.
			c.enum = nil
			return false, nil
		}
		return true, nil
	}
	pages := make([]device.PageID, 0, int(end-leaf.minPid)+1)
	for pid := leaf.minPid; pid <= end; pid++ {
		pages = append(pages, pid)
	}
	c.pages = pages
	return true, nil
}

// stepEnum probes overlap keys until one flags pages not yet read (they
// become the cursor's page queue) or the overlap is exhausted (c.pages
// stays empty). Filters have no false negatives, so every in-range
// key's pages are flagged by its own probe; the seen set only stops a
// page from being read — and its tuples emitted — twice.
func (c *Cursor) stepEnum() {
	e := c.enum
	for !e.exhausted {
		k := e.next
		if k == e.end {
			e.exhausted = true // probe k below, but don't advance past it
		} else {
			e.next++
		}
		e.bids = e.leaf.appendProbe(e.bids[:0], k)
		c.stats.BFProbes += e.leaf.numBFs()
		// The pages come out ascending, with no sort: appendProbe yields
		// the filters in ascending order, each filter covers a run of
		// pages disjoint from and above the previous filter's
		// (pageRangeOf), and skipping pages keeps the order.
		e.pages = e.pages[:0]
		for _, bid := range e.bids {
			plo, phi := e.leaf.pageRangeOf(bid)
			for p := plo; p <= phi; p++ {
				if p < e.leaf.minPid || p > e.endPid || e.seen[p] {
					continue
				}
				e.seen[p] = true
				e.pages = append(e.pages, p)
			}
		}
		if len(e.pages) > 0 {
			c.pages = e.pages
			return
		}
	}
}

// collect reads one data page and replaces c.tuples with views of its
// in-range tuples, charging the read (and a false read when nothing
// matched). The views the previous page handed out stay valid: only the
// slice that listed them is reused.
func (c *Cursor) collect(pid device.PageID) error {
	var err error
	if c.tuples, err = c.t.file.AppendMatches(c.tuples[:0], pid, c.t.fieldIdx, heapfile.Keys{Lo: c.lo, Hi: c.hi}); err != nil {
		return err
	}
	c.stats.DataPagesRead++
	if len(c.tuples) == 0 {
		c.stats.FalseReads++
	}
	return nil
}
