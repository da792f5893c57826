package forest

import (
	"fmt"

	"bftree/internal/core"
)

// Iterator is the streaming-scan contract the forest's cursors satisfy
// — structurally identical to index.Iterator, declared here so the
// package does not import the registry it is registered into.
type Iterator interface {
	Next() bool
	Tuple() []byte
	Stats() core.ProbeStats
	Err() error
	Close() error
}

// Scan streams every tuple whose indexed field lies in [lo, hi] across
// all shards, each association exactly once. Shards come out in key
// order; within a shard, tuples come in the order of its BF-tree's
// scan, which emits a boundary leaf's pages in probe order, so the
// whole stream is in key order only when no leaf straddles lo or hi.
//
// Shard cursors chain lazily: shards are ordered and disjoint by key,
// so the merge degenerates to concatenation, and a LIMIT-k consumer
// never touches shards past the one holding its k-th tuple. Each
// shard's sub-scan is clamped to the shard's own key bounds — a data
// page straddling a partition cut is covered by both adjacent shards'
// leaves, and the clamp is what keeps the lower shard from emitting the
// upper shard's tuples (and vice versa).
//
// Cross-shard consistency: each shard cursor holds its own epoch
// registration, so the scan is per-shard consistent, not a single
// forest-wide snapshot — a concurrent writer may land between two
// shards' sub-scans.
func (f *Forest) Scan(lo, hi uint64) (Iterator, error) {
	if lo > hi {
		return nil, fmt.Errorf("%w: range [%d,%d] inverted", core.ErrOptions, lo, hi)
	}
	return &chainCursor{f: f, lo: lo, hi: hi}, nil
}

// RangeScan materializes Scan — exactly a drained cursor, so the two
// report identical stats.
func (f *Forest) RangeScan(lo, hi uint64) (*core.Result, error) {
	it, err := f.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	res := &core.Result{}
	for it.Next() {
		res.Tuples = append(res.Tuples, it.Tuple())
	}
	res.Stats = it.Stats()
	if err := it.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// chainCursor is the forest scan: shard cursors opened one at a time
// in shard (= key) order, each clamped to its shard's bounds.
type chainCursor struct {
	f      *Forest
	lo, hi uint64
	shard  int          // next shard index to consider opening
	cur    *core.Cursor // live sub-cursor, nil between shards
	prior  core.ProbeStats
	err    error
	closed bool
}

func (c *chainCursor) Next() bool {
	if c.closed || c.err != nil {
		return false
	}
	for {
		if c.cur == nil && !c.openNext() {
			return false
		}
		if c.cur.Next() {
			return true
		}
		if err := c.cur.Err(); err != nil {
			c.fail(err)
			return false
		}
		c.prior.Add(c.cur.Stats())
		c.cur.Close()
		c.cur = nil
	}
}

// openNext opens the next shard whose key bounds overlap [lo, hi],
// clamped to them; false when no shard remains.
func (c *chainCursor) openNext() bool {
	for ; c.shard < len(c.f.trees); c.shard++ {
		sLo, sHi := c.f.bounds(c.shard)
		if sHi < c.lo || sLo > c.hi {
			continue
		}
		if sLo < c.lo {
			sLo = c.lo
		}
		if sHi > c.hi {
			sHi = c.hi
		}
		cur, err := c.f.trees[c.shard].ScanOptimized(sLo, sHi)
		if err != nil {
			c.fail(err)
			return false
		}
		c.shard++
		c.cur = cur
		return true
	}
	return false
}

func (c *chainCursor) fail(err error) {
	c.err = err
	if c.cur != nil {
		c.prior.Add(c.cur.Stats())
		c.cur.Close()
		c.cur = nil
	}
}

func (c *chainCursor) Tuple() []byte {
	if c.cur == nil {
		return nil
	}
	return c.cur.Tuple()
}

func (c *chainCursor) Stats() core.ProbeStats {
	s := c.prior
	if c.cur != nil {
		s.Add(c.cur.Stats())
	}
	return s
}

func (c *chainCursor) Err() error { return c.err }

func (c *chainCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cur != nil {
		c.prior.Add(c.cur.Stats())
		c.cur.Close()
		c.cur = nil
	}
	return nil
}
