package core

import (
	"bftree/internal/device"
)

// rangeEnumLimit caps the boundary-value enumeration of the optimized
// range scan; Section 7 notes the optimization is impractical for very
// high-cardinality domains, where the plain scan is used instead.
const rangeEnumLimit = 1 << 20

// RangeScan returns every tuple whose indexed field lies in [lo, hi],
// reading whole partitions: each BF-leaf overlapping the range
// contributes all of its data pages (Section 7). Middle partitions are
// entirely useful; boundary partitions incur the read overhead Figure 13
// quantifies. It is exactly Scan drained to a slice — the streaming
// cursor is the one scan code path.
func (t *Tree) RangeScan(lo, hi uint64) (*Result, error) {
	return t.rangeScan(lo, hi, false)
}

// RangeScanOptimized is the boundary optimization of Section 7: for the
// boundary partitions it enumerates the key values of the overlap and
// probes the Bloom filters, reading only the matching pages.
func (t *Tree) RangeScanOptimized(lo, hi uint64) (*Result, error) {
	return t.rangeScan(lo, hi, true)
}

func (t *Tree) rangeScan(lo, hi uint64, optimize bool) (*Result, error) {
	c, err := t.scan(lo, hi, optimize)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res := &Result{}
	for c.Next() {
		res.Tuples = append(res.Tuples, c.Tuple())
	}
	res.Stats = c.Stats()
	if err := c.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// overlapSpan returns the size of the key overlap between a leaf and the
// scan range, saturating at MaxUint64 instead of wrapping when the
// overlap covers the whole key domain (which would otherwise select the
// boundary enumeration for an un-enumerable range).
func overlapSpan(leaf *bfLeaf, lo, hi uint64) uint64 {
	a, b := leaf.minKey, leaf.maxKey
	if lo > a {
		a = lo
	}
	if hi < b {
		b = hi
	}
	if b < a {
		return 0
	}
	if b-a == ^uint64(0) {
		return ^uint64(0)
	}
	return b - a + 1
}

// Intersect probes this tree and another for the same key and returns
// the data pages both indexes consider candidates — the index
// intersection of Section 8, whose false positive probability is the
// product of the two trees' probabilities.
func (t *Tree) Intersect(other *Tree, keyThis, keyOther uint64) ([]device.PageID, *ProbeStats, error) {
	stats := &ProbeStats{}
	mine, err := t.candidatePages(keyThis, stats)
	if err != nil {
		return nil, nil, err
	}
	theirs, err := other.candidatePages(keyOther, stats)
	if err != nil {
		return nil, nil, err
	}
	inOther := make(map[device.PageID]bool, len(theirs))
	for _, p := range theirs {
		inOther[p] = true
	}
	var out []device.PageID
	for _, p := range mine {
		if inOther[p] {
			out = append(out, p)
		}
	}
	return out, stats, nil
}

// candidatePages runs the index part of Algorithm 1 only: descend, probe,
// and return candidate data pages without fetching them.
func (t *Tree) candidatePages(key uint64, stats *ProbeStats) ([]device.PageID, error) {
	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	return indexReader{t: t, stats: stats}.candidates(m.root, key, nil)
}
