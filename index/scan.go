package index

import (
	"errors"
	"fmt"

	"bftree/internal/core"
)

// ErrInvalidRange reports input outside what the index covers: an
// inverted scan range (lo > hi), or a write whose ref names a page
// outside the relation or, on a BF-tree, a page that breaks the
// relation's key/page order. Every backend's Scan, RangeScan, Insert
// and Delete return it, so validation behaves identically across the
// registry.
var ErrInvalidRange = errors.New("index: invalid range")

// checkRef rejects a write whose ref names a page outside file: the
// association would send every later probe of its key to a page the
// relation does not hold.
func checkRef(file *File, ref Ref) error {
	first := file.FirstPage()
	end := first + PageID(file.NumPages())
	if ref.Page < first || ref.Page >= end {
		return fmt.Errorf("%w: page %d outside the relation's pages [%d,%d)", ErrInvalidRange, ref.Page, first, end)
	}
	return nil
}

// keyOrder reports a BF-tree write whose page lies outside the key's
// leaf (core.ErrKeyRange) as the caller's ErrInvalidRange.
func keyOrder(err error) error {
	if errors.Is(err, core.ErrKeyRange) {
		return fmt.Errorf("%w: %w", ErrInvalidRange, err)
	}
	return err
}

// Iterator streams the tuples of a range scan, one at a time, in the
// backend's scan order, each tuple exactly once:
//
//   - exact backends (bptree, fdtree, hash) return key order;
//   - approximate backends (the registry's Approximate trait) return no
//     defined order: a BF-leaf only partly inside the range reads each
//     page as soon as a probed key flags it, so its pages come out in
//     probe order, neither key nor page order;
//   - bfforest chains its shards in key order, each shard in its
//     BF-tree's order.
//
// The contract:
//
//   - Next advances to the next tuple and reports whether one exists;
//     after it returns false the iterator is exhausted (check Err).
//   - Tuple returns the current tuple — a read-only view of its data
//     page's shared image, valid for as long as the caller holds it,
//     after further Next calls and after Close. A caller that wants to
//     change it copies it first; a retained view keeps its page image
//     (4 KiB at the default page size) alive.
//   - Stats reports the cost accounting accumulated so far; after each
//     Next it reflects exactly the index and data pages paid to reach
//     the current tuple, so early termination is priced per step.
//   - Close releases whatever the iterator holds (buffers, and for the
//     BF-Tree its epoch reader registration). It is idempotent, safe
//     mid-scan, and must be called when abandoning iteration early;
//     a drained iterator has already released its resources, but
//     closing it anyway is harmless.
//
// Iterators are not safe for concurrent use; open one per goroutine.
type Iterator interface {
	Next() bool
	Tuple() []byte
	Stats() ProbeStats
	Err() error
	Close() error
}

// Scanner is the streaming-scan capability: Scan opens an Iterator
// over every tuple whose indexed field lies in [lo, hi]. A LIMIT-k
// consumer that stops pulling after k tuples pays only for the pages
// behind those tuples — the early-termination shape the materialized
// RangeScan (which is exactly a drained Scan) cannot offer.
type Scanner interface {
	Scan(lo, hi uint64) (Iterator, error)
}

// MultiSearcher is the batched-probe capability: MultiSearch answers a
// batch of point lookups in one pass. Implementations sort and dedup
// the keys, share index descents and filter probes across adjacent
// keys, and fetch each data page at most once for the whole batch, so
// per-key I/O falls as the batch grows. The Result holds every tuple
// matching any batch key (grouped by key or by page, per backend) and
// the batch's total cost.
type MultiSearcher interface {
	MultiSearch(keys []uint64) (*Result, error)
}

// Drain consumes an iterator to completion and returns the materialized
// Result. It closes the iterator in all cases.
func Drain(it Iterator) (*Result, error) {
	res := &Result{}
	if err := drainInto(it, false, res); err != nil {
		return nil, err
	}
	return res, nil
}

// scanRange is the one slice-RangeScan code path: open the backend's
// streaming cursor and drain it.
func scanRange(s Scanner, lo, hi uint64) (*Result, error) {
	it, err := s.Scan(lo, hi)
	if err != nil {
		return nil, err
	}
	return Drain(it)
}
