package index

import (
	"errors"
)

// ErrInvalidRange reports an inverted scan range (lo > hi). Every
// backend's Scan and RangeScan return it, so range validation behaves
// identically across the registry.
var ErrInvalidRange = errors.New("index: invalid range")

// Iterator streams the tuples of a range scan, one at a time, in the
// backend's scan order. The contract:
//
//   - Next advances to the next tuple and reports whether one exists;
//     after it returns false the iterator is exhausted (check Err).
//   - Tuple returns the current tuple — a copy owned by the caller,
//     valid after further Next calls.
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
	defer it.Close()
	res := &Result{}
	for it.Next() {
		res.Tuples = append(res.Tuples, it.Tuple())
	}
	res.Stats = it.Stats()
	if err := it.Err(); err != nil {
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

// addStats accumulates s into dst (the ProbeStats alias keeps its add
// method unexported in internal/core).
func addStats(dst *ProbeStats, s ProbeStats) {
	dst.IndexReads += s.IndexReads
	dst.BFProbes += s.BFProbes
	dst.CandidatePages += s.CandidatePages
	dst.DataPagesRead += s.DataPagesRead
	dst.FalseReads += s.FalseReads
}
